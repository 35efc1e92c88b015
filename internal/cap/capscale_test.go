package cap

import "testing"

// The cap-scale family: the slab-backed capability engine under
// paper-scale load — a million live capabilities per Space, deep and
// wide revocation trees, epoch-bump purges. Host-side ns/op of the data
// structures behind every syscall's validation fast path; run with
// `go test -run xxx -bench CapScale ./internal/cap` (the table is in
// docs/PERFORMANCE.md, the methodology in EXPERIMENTS.md).

// capScaleWorld is the shared fixture: one revocation tree with n
// delegatee nodes under a single root object, and one capability space
// holding a live entry per node — the shape of a Process that has
// delegated n capabilities.
func capScaleWorld(n int) (*Tree, *Space, []CapID) {
	tree := NewTree()
	space := NewSpace()
	root := tree.Create(nil)
	cids := make([]CapID, n)
	for i := 0; i < n; i++ {
		node := tree.Derive(root.ID, nil)
		cids[i] = space.Install(Entry{
			Kind:   KindMemory,
			Ref:    Ref{Ctrl: 1, Obj: node.ID, Epoch: 1},
			Rights: Read | Write,
		})
	}
	return tree, space, cids
}

// BenchmarkCapScaleValidate1M measures the validation fast path at one
// million live capabilities: cid → Entry (Space.Peek, generation-checked
// slab lookup) then Ref → Node (Tree.Probe) plus the revoked/ctrl/epoch
// fence — exactly what Controller.Validate and resolveEntry do per
// syscall. Accesses stride across the space so the number reflects
// O(1) structure, not a hot cache line.
func BenchmarkCapScaleValidate1M(b *testing.B) {
	const live = 1_000_000
	tree, space, cids := capScaleWorld(live)
	const epoch = Epoch(1)
	b.ResetTimer()
	idx := 0
	for i := 0; i < b.N; i++ {
		e := space.Peek(cids[idx])
		if e == nil {
			b.Fatal("live cid failed to resolve")
		}
		n := tree.Probe(e.Ref.Obj)
		if n == nil || n.Revoked || e.Ref.Ctrl != 1 || e.Ref.Epoch != epoch {
			b.Fatal("validation fast path missed")
		}
		if idx += 7777; idx >= live {
			idx -= live
		}
	}
}

// BenchmarkCapScaleSpaceChurn1M measures slot recycling under churn with
// the space held at a million live entries: each op drops one entry and
// installs a replacement. The free list must hand the slot straight
// back — the space never grows past its high-water mark and the pair
// stays allocation-free at steady state.
func BenchmarkCapScaleSpaceChurn1M(b *testing.B) {
	const live = 1_000_000
	_, space, cids := capScaleWorld(live)
	e := Entry{Kind: KindRequest, Ref: Ref{Ctrl: 1, Obj: 1, Epoch: 1}}
	b.ResetTimer()
	idx := 0
	for i := 0; i < b.N; i++ {
		space.Drop(cids[idx])
		cids[idx] = space.Install(e)
		if idx += 7777; idx >= live {
			idx -= live
		}
	}
	if got := space.Slots(); got != live {
		b.Fatalf("space grew to %d slots under churn, want %d", got, live)
	}
}

// BenchmarkCapScaleDelegateChurn measures one full delegation lifecycle
// on the revocation tree: derive a delegatee child of a 100k-node tree,
// revoke it, remove the stub. Every step is O(1) — intrusive child
// links on Derive, a single-node walk on Revoke, unlink + slab free on
// Remove — so ns/op must not scale with tree size, and the tree must
// end exactly where it started.
func BenchmarkCapScaleDelegateChurn(b *testing.B) {
	const base = 100_000
	tree, _, _ := capScaleWorld(base)
	parent := tree.Create(nil)
	start := tree.Len()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := tree.Derive(parent.ID, nil)
		tree.Revoke(n.ID, nil)
		tree.Remove(n.ID)
	}
	if got := tree.Len(); got != start {
		b.Fatalf("tree grew to %d nodes under churn, want %d", got, start)
	}
}

// BenchmarkCapScaleEpochPurge64K measures the epoch-bump response: one
// op purges every entry of a 64k-capability space through PurgeRefs (the
// path peerEpoch takes when a Controller reboots) and reinstalls the
// population for the next round. Purged cids are generation-bumped so
// stale handles stay dead; reinstalls recycle the freed slots, keeping
// the slab at its high-water mark across ops.
func BenchmarkCapScaleEpochPurge64K(b *testing.B) {
	const live = 64 * 1024
	_, space, _ := capScaleWorld(live)
	e := Entry{Kind: KindMemory, Ref: Ref{Ctrl: 2, Obj: 9, Epoch: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if purged := space.PurgeRefs(func(Ref) bool { return true }); purged != live {
			b.Fatalf("purged %d entries, want %d", purged, live)
		}
		for j := 0; j < live; j++ {
			space.Install(e)
		}
	}
}

// benchRevokeChain measures revocation latency against delegation
// depth: one op revokes (and dismantles) a chain of depth nodes. The
// iterative pre-order walk keeps this stack-flat at any depth; the
// rebuild between ops is outside the timer and reuses the same tree so
// slot recycling is exercised rather than allocator growth.
func benchRevokeChain(b *testing.B, depth int) {
	tree := NewTree()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		root := tree.Create(nil)
		parent := root.ID
		for j := 1; j < depth; j++ {
			parent = tree.Derive(parent, nil).ID
		}
		b.StartTimer()
		revoked := tree.Revoke(root.ID, nil)
		if len(revoked) != depth {
			b.Fatalf("revoked %d nodes, want %d", len(revoked), depth)
		}
		for j := len(revoked) - 1; j >= 0; j-- {
			tree.Remove(revoked[j].ID)
		}
	}
}

func BenchmarkCapScaleRevokeDepth10k(b *testing.B)  { benchRevokeChain(b, 10_000) }
func BenchmarkCapScaleRevokeDepth100k(b *testing.B) { benchRevokeChain(b, 100_000) }

// BenchmarkCapScaleRevokeD1000F10 measures the acceptance-shape tree: a
// 1000-deep delegation chain where every chain node also fans out to 9
// leaf delegatees (10k nodes total). One op revokes the root and
// dismantles the subtree — depth and width in one walk.
func BenchmarkCapScaleRevokeD1000F10(b *testing.B) {
	const depth, fanout = 1000, 10
	tree := NewTree()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		root := tree.Create(nil)
		parent := root.ID
		total := 1
		for j := 1; j < depth; j++ {
			for k := 0; k < fanout-1; k++ {
				tree.Derive(parent, nil)
				total++
			}
			parent = tree.Derive(parent, nil).ID
			total++
		}
		b.StartTimer()
		revoked := tree.Revoke(root.ID, nil)
		if len(revoked) != total {
			b.Fatalf("revoked %d nodes, want %d", len(revoked), total)
		}
		for j := len(revoked) - 1; j >= 0; j-- {
			tree.Remove(revoked[j].ID)
		}
	}
}
