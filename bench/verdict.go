package bench

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	cxlmc "repro"
)

// DefaultSeed is the seed expected.json is pinned for. Only generated
// inputs (the litmus corpus) depend on the seed.
const DefaultSeed = 1000

// Verdict is the part of a run's result the engine promises invariant
// for complete runs at any worker count: the explored counts and the
// distinct-bug set. StepsSaved, PrefixForks and bug ordinals are not in
// it, so parallel workloads compare against the same pins as serial
// ones.
type Verdict struct {
	Executions     int      `json:"execs"`
	Steps          int64    `json:"steps"`
	FailurePoints  int      `json:"fpoints"`
	ReadFromPoints int      `json:"rfpoints"`
	Bugs           []string `json:"bugs,omitempty"` // sorted "kind: message"
}

// verdictOf extracts the verdict of one run, or fails when the run did
// not explore its whole tree.
func verdictOf(res *cxlmc.Result) (Verdict, error) {
	if !res.Complete {
		return Verdict{}, fmt.Errorf("run stopped after %d executions without completing", res.Executions)
	}
	v := Verdict{
		Executions: res.Executions, Steps: res.Steps,
		FailurePoints: res.FailurePoints, ReadFromPoints: res.ReadFromPoints,
	}
	for _, b := range res.Bugs {
		v.Bugs = append(v.Bugs, b.Kind.String()+": "+b.Message)
	}
	sort.Strings(v.Bugs)
	return v, nil
}

// add folds one program's verdict into a round total. Bug lists of many
// programs collapse into a count and a digest with digestBugs.
func (v *Verdict) add(o Verdict, prefix string) {
	v.Executions += o.Executions
	v.Steps += o.Steps
	v.FailurePoints += o.FailurePoints
	v.ReadFromPoints += o.ReadFromPoints
	for _, b := range o.Bugs {
		v.Bugs = append(v.Bugs, prefix+b)
	}
}

// digestBugs replaces a long bug list by its length and hash, keeping
// round totals short in expected.json.
func (v *Verdict) digestBugs() {
	h := sha256.New()
	for _, b := range v.Bugs {
		fmt.Fprintln(h, b)
	}
	v.Bugs = []string{fmt.Sprintf("%d bugs sha256:%x", len(v.Bugs), h.Sum(nil)[:8])}
}

func (v Verdict) equal(o Verdict) bool {
	return v.Executions == o.Executions && v.Steps == o.Steps &&
		v.FailurePoints == o.FailurePoints && v.ReadFromPoints == o.ReadFromPoints &&
		slices.Equal(v.Bugs, o.Bugs)
}

func (v Verdict) String() string {
	return fmt.Sprintf("%d execs/%d steps/%d fp/%d rf/bugs %q",
		v.Executions, v.Steps, v.FailurePoints, v.ReadFromPoints, v.Bugs)
}

//go:embed expected.json
var expectedJSON []byte

// Pins is bench/expected.json: the verdict every timed op must
// reproduce, keyed by "table5/<row>", "source_cceh", "jobs_api" and
// "litmus" (round totals at DefaultSeed), and each bug hunt's bug kind.
type Pins struct {
	Seed     int64              `json:"seed"`
	Verdicts map[string]Verdict `json:"verdicts"`
	Hunts    map[string]string  `json:"hunts"`

	// record makes Check store what it is shown instead of comparing;
	// the smoke test's -update flag re-derives expected.json this way.
	record bool
}

// recordingPins returns empty pins that record. Two workloads sharing a
// key must still agree with each other.
func recordingPins() *Pins {
	return &Pins{Seed: DefaultSeed, Verdicts: map[string]Verdict{}, Hunts: map[string]string{}, record: true}
}

// LoadPins parses the embedded expected.json.
func LoadPins() (*Pins, error) {
	p := &Pins{}
	if err := json.Unmarshal(expectedJSON, p); err != nil {
		return nil, fmt.Errorf("bench: parsing expected.json: %w", err)
	}
	return p, nil
}

// Check compares a verdict with its pin.
func (p *Pins) Check(key string, got Verdict) error {
	want, ok := p.Verdicts[key]
	if p.record && !ok {
		p.Verdicts[key] = got
		return nil
	}
	if !ok {
		return fmt.Errorf("%s: no pinned verdict", key)
	}
	if !want.equal(got) {
		return fmt.Errorf("%s: verdict %v, pinned %v", key, got, want)
	}
	return nil
}

// CheckHunt compares the kind of the first bug a hunt found with its pin.
func (p *Pins) CheckHunt(name, kind string) error {
	if p.record {
		p.Hunts[name] = kind
		return nil
	}
	if want := p.Hunts[name]; want != kind {
		return fmt.Errorf("hunt %s: found a %q bug, pinned %q", name, kind, want)
	}
	return nil
}
