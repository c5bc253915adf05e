package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// Manifest is BENCHMARK.json: the contract between this benchmark and
// whatever gates changes on it. The bounds live there, not in the code.
type Manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// LoadManifest reads BENCHMARK.json from the repository root.
func LoadManifest(root string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("bench: parsing BENCHMARK.json: %w", err)
	}
	return m, nil
}

// runSet is one side of a comparison: one result file, or every
// *.json file of a directory — a set of runs of the same code.
type runSet []*Result

func loadSet(path string) (runSet, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil || len(files) == 0 {
			return nil, fmt.Errorf("bench: no result files in %s", path)
		}
	}
	var set runSet
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		r := &Result{}
		if err := json.Unmarshal(data, r); err != nil {
			return nil, fmt.Errorf("bench: parsing %s: %w", f, err)
		}
		if r.Seed != set.seed() && len(set) > 0 {
			return nil, fmt.Errorf("bench: %s ran seed %d, the files before it seed %d: their inputs differ", f, r.Seed, set.seed())
		}
		set = append(set, r)
	}
	return set, nil
}

func (s runSet) seed() int64 {
	if len(s) == 0 {
		return 0
	}
	return s[0].Seed
}

// workload gathers one workload's results across the set's runs.
func (s runSet) workload(name string) (runs []WorkloadResult) {
	for _, r := range s {
		for _, wr := range r.Workloads {
			if wr.Name == name {
				runs = append(runs, wr)
			}
		}
	}
	return runs
}

// setEndToEnd is the set's median of one workload's metric and the noise
// to weigh a difference against: the spread between the runs when there
// are at least four, otherwise the widest spread inside a run.
func setEndToEnd(runs []WorkloadResult, metric string) (value, noise float64, ok bool) {
	var vals []float64
	for _, wr := range runs {
		if v, has := wr.EndToEnd[metric]; has {
			vals = append(vals, v.Value)
			noise = math.Max(noise, wr.Spread[metric])
		}
	}
	if len(vals) >= 4 {
		noise = spread(vals)
	}
	return median(vals), noise, len(vals) > 0
}

// perLayer is the set's median of a per-layer metric, and whether every
// run that has it agrees on it exactly.
func (s runSet) perLayer(metric string) (value float64, same, ok bool) {
	var vals []float64
	for _, r := range s {
		if v, has := r.PerLayer[metric]; has {
			vals = append(vals, v.Value)
		}
	}
	same = true
	for _, v := range vals {
		same = same && v == vals[0]
	}
	return median(vals), same, len(vals) > 0
}

// Compare prints, for every workload × end-to-end metric the two sides
// share, whether b is better than a, within the metric's bound, worse,
// or unresolved: the difference exceeds the bound but so does the noise
// of one side, so the two cannot be told apart. Each side is a result
// file or a directory of them; a directory is compared by its medians.
// Per-layer metrics are listed with their ratio; the exact counts must
// be identical in every run. It reports false on any worse, any failed
// op and any count mismatch.
func Compare(w io.Writer, root, aPath, bPath string) (bool, error) {
	man, err := LoadManifest(root)
	if err != nil {
		return false, err
	}
	a, err := loadSet(aPath)
	if err != nil {
		return false, err
	}
	b, err := loadSet(bPath)
	if err != nil {
		return false, err
	}
	if a.seed() != b.seed() {
		return false, fmt.Errorf("bench: %s ran seed %d and %s seed %d: their inputs differ", aPath, a.seed(), bPath, b.seed())
	}
	ok := true
	for _, size := range Sizes {
		wa, wb := a.workload(size.Name), b.workload(size.Name)
		if len(wa) == 0 || len(wb) == 0 {
			continue
		}
		failed := 0
		for _, wr := range append(wa, wb...) {
			failed += wr.Failed
		}
		if failed > 0 {
			ok = false
			fmt.Fprintf(w, "%-12s verdict mismatch: %d failed ops\n", size.Name, failed)
		}
		for _, m := range man.EndToEnd {
			va, noiseA, okA := setEndToEnd(wa, m.Name)
			vb, noiseB, okB := setEndToEnd(wb, m.Name)
			if !okA || !okB {
				continue
			}
			// worse is the relative change in the metric's bad direction.
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			noise := math.Max(noiseA, noiseB)
			verdict := "within"
			switch {
			case math.Abs(worse) > m.Bound && noise > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict, ok = "worse", false
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-12s %-14s %14.6g -> %-14.6g %-8s %+7.2f%% (bound %.0f%%, noise %.1f%%) %s\n",
				size.Name, m.Name, va, vb, m.Unit, 100*(vb-va)/va, 100*m.Bound, 100*noise, verdict)
		}
	}

	var logRatio float64
	var rows int
	for _, m := range PerLayer() {
		va, sameA, okA := a.perLayer(m.Name)
		vb, sameB, okB := b.perLayer(m.Name)
		if !okA || !okB {
			continue
		}
		note := ""
		if ExactPerLayer(m.Name) {
			note = "exact"
			if !sameA || !sameB || va != vb {
				note, ok = "MISMATCH: this count must repeat exactly", false
			}
		}
		if strings.HasPrefix(m.Name, "recipe.verdict_ms.") {
			logRatio += math.Log(vb / va)
			rows++
		}
		fmt.Fprintf(w, "%-40s %14.6g -> %-14.6g %-6s x%.3f %s\n", m.Name, va, vb, m.Unit, vb/va, note)
	}
	if rows > 0 {
		fmt.Fprintf(w, "%-40s geometric mean over %d rows x%.3f\n", "recipe.verdict_ms.*", rows, math.Exp(logRatio/float64(rows)))
	}
	return ok, nil
}
