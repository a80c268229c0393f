package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"slowcc/internal/exp"
	"slowcc/internal/store"
)

// workload is one closed batch of sweep cells: a fixed set of cells fed
// to GOMAXPROCS workers by the program's own supervised sweep, each
// worker taking its next cell only when its previous one finished.
type workload struct {
	name string
	// tiny shrinks every cell (fewer flows, shorter timelines, fewer
	// algorithms) so tests can run the full pipeline in seconds.
	tiny bool
}

var workloadNames = []string{"fig45", "matrix-resume"}

func lookupWorkload(name string, tiny bool) (workload, error) {
	for _, n := range workloadNames {
		if n == name {
			return workload{name: name, tiny: tiny}, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// fig45Config is the Figure 4/5 stabilization sweep at slowccsim's
// default scale: five families x gamma in {1, 2, 4, 8, 16}, each cell 20
// flows against a CBR source that is on until 50 s, off until 60 s and
// on again until 120 s, with reverse TCP traffic over RED.
func (w workload) fig45Config(seed int64) exp.Fig45Config {
	if w.tiny {
		return exp.Fig45Config{MaxGamma: 1, Scenario: exp.StabilizationConfig{
			Seed: seed, Flows: 4, OffAt: 15, OnAt: 18, End: 30}}
	}
	return exp.Fig45Config{MaxGamma: 16, Scenario: exp.StabilizationConfig{
		Seed: seed, OffAt: 50, OnAt: 60, End: 120}}
}

// matrixConfig is the default 7x7 pairwise matrix over every condition
// and both topologies (294 cells) at slowccsim's default scale, the
// sweep matrix-resume resumes.
func (w workload) matrixConfig(seed int64) exp.MatrixConfig {
	if w.tiny {
		return exp.MatrixConfig{Seed: seed, Algos: exp.DefaultMatrixAlgos()[:2],
			Warmup: 2, Measure: 6}
	}
	return exp.MatrixConfig{Seed: seed, Warmup: 3, Measure: 12, Period: 1}
}

// resumeSubset is the sub-matrix the matrix-resume set-up computes into
// the store before the timed sweep: {TCP, TFRC, RAP, SQRT}, a third of
// the full matrix's cells. Matrix cells are keyed by their own
// configuration, not by the algorithm list, so exactly these cells hit.
func (w workload) resumeSubset(seed int64) exp.MatrixConfig {
	cfg := w.matrixConfig(seed)
	n := 4
	if w.tiny {
		n = 1
	}
	cfg.Algos = exp.DefaultMatrixAlgos()[:n]
	return cfg
}

// expectedHits is the store hit count every matrix-resume sweep must see.
func (w workload) expectedHits() int64 {
	if w.name != "matrix-resume" {
		return 0
	}
	c := fillMatrix(w.resumeSubset(0))
	n := len(c.Algos)
	return int64(n * n * len(c.Conditions) * len(c.Topologies))
}

// sweepResult is one sweep's outcome.
type sweepResult struct {
	seconds float64
	cells   int
	// failed counts cells that degraded or that the breaker skipped.
	failed int
	// output is the sweep's deterministic artifact (matrix TSV, fig45 JSON).
	output []byte
	// events is the number of events the sweep's computed cells executed,
	// when eventsMeasured: read from the stored cell stats of a
	// matrix-resume sweep, or from the sink of a traced sweep.
	events         uint64
	eventsMeasured bool
	// Store activity (matrix-resume only).
	hits, misses  int64
	openS, closeS float64
	entries       []*store.Entry
	// The results and the configuration the sweep ran, for the replay.
	matrix       []exp.MatrixCell
	fig45        []exp.Fig45Point
	matrixConfig exp.MatrixConfig
	fig45Config  exp.Fig45Config
}

func (r *sweepResult) sha() string {
	sum := sha256.Sum256(r.output)
	return hex.EncodeToString(sum[:])
}

// seedsPerRun is how many simulation seeds one run sweeps. Fig45 has
// only 25 cells, so a single seed's dynamics shift its work and
// allocation by up to a fifth; ten seeds per run average that out (with
// five, allocation still differed by 14% between seed sets). The
// matrix's 294 cells already do.
func (w workload) seedsPerRun() int {
	if w.name == "fig45" {
		return 10
	}
	return 1
}

// prepared is what set-up leaves for the timed sweeps.
type prepared struct {
	// templates maps each seed to the pre-populated store directory its
	// matrix-resume sweeps start from (a fresh copy per sweep), and
	// templateEvents to the events its cells executed when recorded.
	templates      map[int64]string
	templateEvents map[int64]uint64
}

// setup builds the workload's inputs for the given seeds under dir. For
// matrix-resume it computes the sub-matrix into a fresh store per seed,
// so a third of the full matrix's cells are present when the timed
// sweep starts. Every workload then runs one warm-up cell through the
// supervised matrix path so lazy initialisation and heap growth are not
// timed.
func (w workload) setup(seeds []int64, dir string) (prepared, error) {
	p := prepared{templates: map[int64]string{}, templateEvents: map[int64]uint64{}}
	if w.name == "matrix-resume" {
		for _, seed := range seeds {
			tdir := filepath.Join(dir, fmt.Sprintf("template-%d", seed))
			if err := os.RemoveAll(tdir); err != nil {
				return p, err
			}
			st, err := store.Open(tdir)
			if err != nil {
				return p, err
			}
			exp.SetSweepStore(st, true)
			cells := exp.Matrix(w.resumeSubset(seed))
			exp.SetSweepStore(nil, false)
			p.templateEvents[seed] = storedEvents(st.Entries())
			if err := st.Close(); err != nil {
				return p, err
			}
			for _, c := range cells {
				if c.Degraded {
					return p, fmt.Errorf("set-up: sub-matrix cell %s/%s %s vs %s degraded", c.Topology, c.Condition, c.A, c.B)
				}
			}
			p.templates[seed] = tdir
		}
	}
	warm := exp.MatrixConfig{Seed: seeds[0], Algos: exp.DefaultMatrixAlgos()[:1],
		Conditions: []string{exp.CondStatic}, Topologies: []string{exp.TopoDumbbell}}
	if w.tiny {
		warm.Warmup, warm.Measure = 1, 2
	}
	if c := exp.Matrix(warm); len(c) != 1 || c[0].Degraded {
		return p, fmt.Errorf("set-up: warm-up cell degraded")
	}
	exp.ResetSweepErrors()
	return p, nil
}

// prepareSweep readies dir for one sweep of seed: for matrix-resume it
// replaces the store under dir with a fresh copy of the seed's template.
// It runs before a sweep's allocation and trace clocks start.
func (w workload) prepareSweep(p prepared, seed int64, dir string) error {
	if w.name != "matrix-resume" {
		return nil
	}
	return copyStore(p.templates[seed], filepath.Join(dir, "store"))
}

// sweep runs the workload once through the program's sweep entry point
// and times it from the call until it returns; for matrix-resume the
// timed span runs from store Open to store Close, over the store copy
// prepareSweep left under dir.
func (w workload) sweep(p prepared, seed int64, dir string) (*sweepResult, error) {
	exp.ResetSweepErrors()
	exp.ResetBreaker()
	r := &sweepResult{}
	switch w.name {
	case "fig45":
		cfg := w.fig45Config(seed)
		t0 := time.Now()
		pts := exp.Fig45(cfg)
		r.seconds = time.Since(t0).Seconds()
		out, err := json.Marshal(pts)
		if err != nil {
			return nil, fmt.Errorf("encoding fig45 output: %w", err)
		}
		r.cells, r.output, r.fig45, r.fig45Config = len(pts), out, pts, cfg
	case "matrix-resume":
		sdir := filepath.Join(dir, "store")
		cfg := w.matrixConfig(seed)
		t0 := time.Now()
		st, err := store.Open(sdir)
		if err != nil {
			return nil, err
		}
		r.openS = time.Since(t0).Seconds()
		exp.SetSweepStore(st, true)
		cells := exp.Matrix(cfg)
		exp.SetSweepStore(nil, false)
		t1 := time.Now()
		err = st.Close()
		r.closeS = time.Since(t1).Seconds()
		r.seconds = time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		r.cells, r.output, r.matrix, r.matrixConfig = len(cells), []byte(exp.RenderMatrixTSV(cells)), cells, cfg
		r.hits, r.misses, r.entries = st.Hits(), st.Misses(), st.Entries()
		r.events, r.eventsMeasured = storedEvents(r.entries)-p.templateEvents[seed], true
	}
	r.failed = len(exp.SweepErrors())
	return r, nil
}

// storedEvents sums the events recorded in entries' cell stats.
func storedEvents(entries []*store.Entry) uint64 {
	var n uint64
	for _, e := range entries {
		if e.Stats != nil {
			n += e.Stats.Events
		}
	}
	return n
}

// copyStore replaces dst with a copy of the store directory src.
func copyStore(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
