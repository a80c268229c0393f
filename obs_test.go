// Determinism guarantee of the manifest layer, checked at the public
// surface: manifests of identical runs must be byte-identical apart from
// wall time. (That probes leave the event stream alone is a row of the
// layer table in pinned_test.go.)
package slowcc_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"slowcc"
)

// benchScenario is the seed-1 macro run (two standard TCP flows,
// 10 Mbps, 30 s) expressed as a TraceRunConfig.
func benchScenario(probeInterval slowcc.Time) slowcc.TraceRunConfig {
	return slowcc.TraceRunConfig{
		Seed:          1,
		Rate:          10e6,
		Duration:      30,
		Algos:         []slowcc.Algorithm{slowcc.TCP(0.5), slowcc.TCP(0.5)},
		ProbeInterval: probeInterval,
	}
}

func TestManifestDeterminism(t *testing.T) {
	run := func() *slowcc.Manifest {
		r := slowcc.NewTraceRun(benchScenario(0.1))
		r.Run()
		return r.Manifest("slowcctrace")
	}
	m1, m2 := run(), run()

	if d1, d2 := m1.ComputeDigest(), m2.ComputeDigest(); d1 != d2 {
		t.Fatalf("same-seed digests differ: %s vs %s", d1, d2)
	}

	// Byte-identical JSON once the one volatile field is zeroed. The
	// digest deliberately excludes WallTimeS, so sealing after zeroing
	// must reproduce the digest too.
	b1, b2 := m1.Encode(), m2.Encode()
	z1, z2 := zeroWallTime(t, b1), zeroWallTime(t, b2)
	if !bytes.Equal(z1, z2) {
		t.Fatalf("same-seed manifests differ beyond wall time:\n%s\nvs\n%s", z1, z2)
	}
	if m1.Digest != m2.Digest {
		t.Fatalf("sealed digests differ: %s vs %s", m1.Digest, m2.Digest)
	}

	// A different seed is a different manifest.
	cfg := benchScenario(0.1)
	cfg.Seed = 2
	r3 := slowcc.NewTraceRun(cfg)
	r3.Run()
	if r3.Manifest("slowcctrace").ComputeDigest() == m1.ComputeDigest() {
		t.Fatal("seed-2 manifest digests identically to seed 1")
	}
}

// zeroWallTime re-encodes manifest JSON with wall_time_s zeroed, keys
// untouched.
func zeroWallTime(t *testing.T, blob []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	m["wall_time_s"] = 0
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}
