package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// record is one stamped result, as -out appends it.
type record struct {
	Stamp  stamp   `json:"stamp"`
	Result *result `json:"result"`
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareMain compares two result sets written with -out: for every
// workload and metric it prints each set's median and quartiles and the
// change of the medians. It refuses sets taken with a different
// GOMAXPROCS or with different seeds, which are not comparable.
func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: sweepbench compare BASE.jsonl NEW.jsonl")
	}
	var sets [2][]record
	for i, p := range args {
		rs, err := readRecords(p)
		if err != nil {
			return err
		}
		if len(rs) == 0 {
			return fmt.Errorf("%s: no records", p)
		}
		sets[i] = rs
	}
	if err := comparable(sets[0], sets[1]); err != nil {
		return err
	}
	type key struct{ workload, metric, unit string }
	vals := [2]map[key][]float64{{}, {}}
	for i, rs := range sets {
		for _, r := range rs {
			for name, m := range r.Result.Metrics {
				k := key{r.Stamp.Workload, name, m.Unit}
				vals[i][k] = append(vals[i][k], m.Value)
			}
		}
	}
	var keys []key
	for k := range vals[0] {
		if _, ok := vals[1][k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-14s %-24s %-6s %14s %14s %14s %14s %9s\n",
		"workload", "metric", "unit", "base_median", "base_iqr", "new_median", "new_iqr", "change")
	for _, k := range keys {
		a, b := vals[0][k], vals[1][k]
		ma, mb := median(a), median(b)
		change := "n/a"
		if ma != 0 {
			change = fmt.Sprintf("%+.2f%%", 100*(mb-ma)/ma)
		}
		fmt.Fprintf(w, "%-14s %-24s %-6s %14.6g %14.6g %14.6g %14.6g %9s\n", k.workload, k.metric, k.unit,
			ma, quantile(a, 0.75)-quantile(a, 0.25), mb, quantile(b, 0.75)-quantile(b, 0.25), change)
	}
	return nil
}

// comparable refuses two result sets whose GOMAXPROCS, trace mode or
// per-workload seed lists differ.
func comparable(a, b []record) error {
	seeds := func(rs []record) (map[string][]int64, map[int]bool) {
		s, procs := map[string][]int64{}, map[int]bool{}
		for _, r := range rs {
			k := fmt.Sprintf("%s trace=%v", r.Stamp.Workload, r.Stamp.Trace)
			s[k] = append(s[k], r.Stamp.Seed)
			procs[r.Stamp.GOMAXPROCS] = true
		}
		for k := range s {
			sort.Slice(s[k], func(i, j int) bool { return s[k][i] < s[k][j] })
		}
		return s, procs
	}
	sa, pa := seeds(a)
	sb, pb := seeds(b)
	if len(pa) != 1 || len(pb) != 1 {
		return fmt.Errorf("a result set mixes GOMAXPROCS values")
	}
	for p := range pa {
		if !pb[p] {
			return fmt.Errorf("GOMAXPROCS differs between the result sets")
		}
	}
	if len(sa) != len(sb) {
		return fmt.Errorf("the result sets cover different workloads")
	}
	for k, s := range sa {
		if formatSeeds(s) != formatSeeds(sb[k]) {
			return fmt.Errorf("%s: seeds %s and %s differ", k, formatSeeds(s), formatSeeds(sb[k]))
		}
	}
	return nil
}

// formatSeeds renders a seed list for messages.
func formatSeeds(seeds []int64) string {
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = fmt.Sprint(s)
	}
	return strings.Join(parts, ",")
}
