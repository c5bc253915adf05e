package decision

import (
	"encoding/binary"
	"fmt"
)

// This file implements the serializable views of the decision tree that
// the checkpoint/resume and bug-replay machinery is built on:
//
//   - Snapshot/Restore persist the whole exploration frontier (node
//     stack, execution count, per-kind creation counters, exhaustion)
//     in a compact versioned binary encoding, so an interrupted run can
//     continue exactly where it left off.
//   - Path/EncodePath/DecodePath capture one execution's branch
//     sequence — the replayable witness a Bug's repro token carries.
//
// Both encodings are self-describing (magic byte + version) so a stale
// or corrupt file is rejected with an error instead of being
// misinterpreted.

// Step is one resolved decision point along an execution path: what was
// chosen (Chosen) among how many branches (N) of which Kind.
type Step struct {
	Kind   Kind
	N      int
	Chosen int
}

// Encoding magics and versions. The node payload is shared between the
// two encodings; only the envelope differs.
const (
	snapshotMagic = 0xD7 // full-tree snapshot
	pathMagic     = 0xD8 // single-execution path
	// snapshotVersion 2 added the mandatory fixed-prefix length that
	// subtree work units need; version-1 snapshots are rejected.
	snapshotVersion = 2
	// pathVersion stays at 1: repro-token paths did not change shape, and
	// tokens recorded before parallel exploration still replay.
	pathVersion = 1
)

func appendNodes(buf []byte, nodes []node) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(nodes)))
	for _, nd := range nodes {
		buf = append(buf, byte(nd.kind))
		buf = binary.AppendUvarint(buf, uint64(nd.n))
		buf = binary.AppendUvarint(buf, uint64(nd.chosen))
	}
	return buf
}

func parseNodes(buf []byte) ([]node, []byte, error) {
	count, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, nil, fmt.Errorf("decision: truncated node count")
	}
	buf = buf[k:]
	// A node occupies at least 3 bytes (kind byte + two 1-byte varints),
	// so a count the remaining buffer cannot possibly hold is a truncated
	// or bit-flipped encoding. Rejecting it here also bounds the
	// preallocation below: a corrupt length prefix must yield a decode
	// error, not a multi-gigabyte allocation.
	if count > uint64(len(buf))/3 {
		return nil, nil, fmt.Errorf("decision: node count %d exceeds what %d bytes can encode", count, len(buf))
	}
	nodes := make([]node, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(buf) == 0 {
			return nil, nil, fmt.Errorf("decision: truncated node %d", i)
		}
		kind := Kind(buf[0])
		buf = buf[1:]
		if kind >= numKinds {
			return nil, nil, fmt.Errorf("decision: node %d has unknown kind %d", i, kind)
		}
		n, k := binary.Uvarint(buf)
		if k <= 0 {
			return nil, nil, fmt.Errorf("decision: truncated arity of node %d", i)
		}
		buf = buf[k:]
		chosen, k := binary.Uvarint(buf)
		if k <= 0 {
			return nil, nil, fmt.Errorf("decision: truncated branch of node %d", i)
		}
		buf = buf[k:]
		if n < 1 || chosen >= n {
			return nil, nil, fmt.Errorf("decision: node %d chooses branch %d of %d", i, chosen, n)
		}
		nodes = append(nodes, node{kind: kind, n: int(n), chosen: int(chosen)})
	}
	return nodes, buf, nil
}

// Snapshot serializes the tree's full exploration state. It is intended
// to be taken between executions (after Advance); the replay cursor is
// not part of the snapshot and restores to the root.
func (t *Tree) Snapshot() []byte { return t.AppendSnapshot(nil) }

// AppendSnapshot appends the tree's Snapshot to buf and returns the
// extended slice: with a reused buffer a snapshot allocates nothing.
func (t *Tree) AppendSnapshot(buf []byte) []byte {
	buf = append(buf, snapshotMagic, snapshotVersion)
	buf = binary.AppendUvarint(buf, uint64(t.execs))
	if t.done {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for _, c := range t.created {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	buf = appendNodes(buf, t.nodes)
	return binary.AppendUvarint(buf, uint64(t.fixed))
}

// Restore replaces the tree's state with a previously-taken Snapshot,
// validating the encoding. The replay cursor returns to the root, ready
// for Begin.
func (t *Tree) Restore(data []byte) error {
	if len(data) < 3 || data[0] != snapshotMagic {
		return fmt.Errorf("decision: not a tree snapshot")
	}
	if data[1] != snapshotVersion {
		return fmt.Errorf("decision: unsupported snapshot version %d (want %d)", data[1], snapshotVersion)
	}
	buf := data[2:]
	execs, k := binary.Uvarint(buf)
	if k <= 0 {
		return fmt.Errorf("decision: truncated execution count")
	}
	buf = buf[k:]
	if len(buf) == 0 {
		return fmt.Errorf("decision: truncated exhaustion flag")
	}
	done := buf[0] != 0
	buf = buf[1:]
	var created [numKinds]int
	for i := range created {
		c, k := binary.Uvarint(buf)
		if k <= 0 {
			return fmt.Errorf("decision: truncated creation counter %d", i)
		}
		created[i] = int(c)
		buf = buf[k:]
	}
	nodes, rest, err := parseNodes(buf)
	if err != nil {
		return err
	}
	fixed, k := binary.Uvarint(rest)
	if k <= 0 {
		return fmt.Errorf("decision: truncated fixed-prefix length")
	}
	rest = rest[k:]
	if len(rest) != 0 {
		return fmt.Errorf("decision: %d trailing bytes after snapshot", len(rest))
	}
	if fixed > uint64(len(nodes)) {
		return fmt.Errorf("decision: fixed prefix %d exceeds %d nodes", fixed, len(nodes))
	}
	t.nodes = nodes
	t.depth = 0
	t.created = created
	t.execs = int(execs)
	t.done = done
	t.fixed = int(fixed)
	// Preloaded-node accounting was settled before the snapshot was
	// taken; only the fixed prefix is known to be someone else's.
	t.recorded = int(fixed)
	return nil
}

// Path returns the current execution's branch sequence: every decision
// point resolved since Begin, in order. Taken at a bug report it is the
// execution's replayable witness.
func (t *Tree) Path() []Step {
	steps := make([]Step, t.depth)
	for i, nd := range t.nodes[:t.depth] {
		steps[i] = Step{Kind: nd.kind, N: nd.n, Chosen: nd.chosen}
	}
	return steps
}

// EncodePath serializes a branch sequence compactly.
func EncodePath(steps []Step) []byte {
	nodes := make([]node, len(steps))
	for i, s := range steps {
		nodes[i] = node{kind: s.Kind, n: s.N, chosen: s.Chosen}
	}
	return appendNodes([]byte{pathMagic, pathVersion}, nodes)
}

// DecodePath parses a branch sequence produced by EncodePath.
func DecodePath(data []byte) ([]Step, error) {
	if len(data) < 2 || data[0] != pathMagic {
		return nil, fmt.Errorf("decision: not a path encoding")
	}
	if data[1] != pathVersion {
		return nil, fmt.Errorf("decision: unsupported path version %d (want %d)", data[1], pathVersion)
	}
	nodes, rest, err := parseNodes(data[2:])
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("decision: %d trailing bytes after path", len(rest))
	}
	steps := make([]Step, len(nodes))
	for i, nd := range nodes {
		steps[i] = Step{Kind: nd.kind, N: nd.n, Chosen: nd.chosen}
	}
	return steps, nil
}

// Reset makes t a tree preloaded with a recorded path, ready to replay
// exactly that execution: Begin then Choose return the recorded branches,
// and decision points past the recorded prefix default to their first
// branch. With lenient set, a Choose that disagrees with the recorded node
// (kind or arity) truncates the remaining recorded suffix and continues
// fresh instead of panicking — the mode path minimization uses when it
// perturbs a recorded path. With no steps t is the empty tree NewTree
// returns. The node storage t grew is reused.
func (t *Tree) Reset(steps []Step, lenient bool) {
	// The recording run already counted every preloaded decision point;
	// a replay's creation counters cover only genuinely fresh decisions,
	// even when a lenient divergence truncates and re-derives a suffix.
	*t = Tree{nodes: t.nodes[:0], lenient: lenient, recorded: len(steps)}
	for _, s := range steps {
		t.nodes = append(t.nodes, node{kind: s.Kind, n: s.N, chosen: s.Chosen})
	}
}
