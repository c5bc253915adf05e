package decision

import "testing"

// TestPendingDepth verifies that after Advance the pending depth names
// the node that will branch differently, and that everything shallower
// is the shared prefix.
func TestPendingDepth(t *testing.T) {
	tr := NewTree()
	if got := tr.PendingDepth(); got != -1 {
		t.Fatalf("empty tree PendingDepth = %d, want -1", got)
	}
	tr.Begin()
	tr.Choose(KindFailure, 2)
	tr.Choose(KindReadFrom, 2)
	tr.Choose(KindFailure, 2)
	if !tr.Advance() {
		t.Fatal("Advance returned false with unexhausted nodes")
	}
	// The deepest node advanced: depths 0 and 1 are the shared prefix.
	if got := tr.PendingDepth(); got != 2 {
		t.Fatalf("PendingDepth = %d, want 2", got)
	}
	tr.Begin()
	if tr.Choose(KindFailure, 2) != 0 || tr.Choose(KindReadFrom, 2) != 0 {
		t.Fatal("shared prefix did not replay branch 0")
	}
	if tr.Choose(KindFailure, 2) != 1 {
		t.Fatal("pending node did not replay its advanced branch")
	}
	if !tr.Advance() {
		t.Fatal("Advance returned false")
	}
	// Depth 2 exhausted and popped; depth 1 advanced.
	if got := tr.PendingDepth(); got != 1 {
		t.Fatalf("PendingDepth = %d, want 1", got)
	}
}
