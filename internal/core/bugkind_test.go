package core

import "testing"

// TestBugKindStringExhaustive walks every kind below the numBugKinds
// sentinel: each must have a distinct, non-"unknown" String. Bug dedup
// keys on Kind.String() + ":" + Message, so a collision or a fallthrough
// to "unknown" would silently merge unrelated bugs.
func TestBugKindStringExhaustive(t *testing.T) {
	seen := map[string]BugKind{}
	for k := BugKind(0); k < numBugKinds; k++ {
		s := k.String()
		if s == "" || s == "unknown" {
			t.Errorf("BugKind(%d).String() = %q: missing a String() case", k, s)
			continue
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("BugKind(%d) and BugKind(%d) share String() %q", prev, k, s)
		}
		seen[s] = k
	}
	if got := numBugKinds.String(); got != "unknown" {
		t.Errorf("out-of-range kind String() = %q, want \"unknown\"", got)
	}
	// The analysis kinds introduced with the race detector must be wired.
	for _, want := range []string{"data-race", "unflushed-publish"} {
		if _, ok := seen[want]; !ok {
			t.Errorf("no BugKind stringifies as %q", want)
		}
	}
}

// TestBugKindNumbersPinned: bugs are serialized by number — in journals,
// checkpoints and job results — so a renumbering would silently turn old
// records into other kinds. Slot 6 is the retired wedge kind: it keeps its
// number and its name so that records holding it still decode and print.
func TestBugKindNumbersPinned(t *testing.T) {
	for k, want := range map[BugKind]int{
		BugAssertion: 0, BugSegfault: 1, BugPanic: 2, BugDeadlock: 3, BugPoison: 4, BugLivelock: 5,
		bugWedged: 6, BugResourceExhausted: 7, BugDataRace: 8, BugUnflushedPublish: 9,
	} {
		if int(k) != want {
			t.Errorf("%s = %d, want %d", k, k, want)
		}
	}
	if got := BugKind(6).String(); got != "wedged" {
		t.Errorf("BugKind(6).String() = %q, want \"wedged\"", got)
	}
}
