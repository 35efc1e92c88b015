package route

import "testing"

func view(loads ...int) []MemberView {
	v := make([]MemberView, len(loads))
	for i, l := range loads {
		v[i] = MemberView{ID: uint64(i + 1), Load: l}
	}
	return v
}

func TestRoundRobinCycles(t *testing.T) {
	p := &RoundRobin{}
	v := view(0, 0, 0)
	want := []int{0, 1, 2, 0, 1, 2}
	for i, w := range want {
		if got := p.Pick(v); got != w {
			t.Fatalf("pick %d = %d, want %d", i, got, w)
		}
	}
	// Membership shrinks: the cursor stays well-defined modulo the new
	// size (no panic, no out-of-range pick).
	v2 := view(0, 0)
	for i := 0; i < 4; i++ {
		if got := p.Pick(v2); got < 0 || got >= len(v2) {
			t.Fatalf("pick after shrink out of range: %d", got)
		}
	}
}

func TestLeastLoadedPicksMinTieLowestID(t *testing.T) {
	p := LeastLoaded{}
	if got := p.Pick(view(3, 1, 2)); got != 1 {
		t.Fatalf("min pick = %d, want 1", got)
	}
	// Tie on load 1 between members 2 and 3 (ids 2,3): lowest id wins.
	if got := p.Pick(view(5, 1, 1)); got != 1 {
		t.Fatalf("tie pick = %d, want 1 (lowest id)", got)
	}
	if got := p.Pick(view(7)); got != 0 {
		t.Fatalf("singleton pick = %d, want 0", got)
	}
}

func TestParsePolicy(t *testing.T) {
	if p, ok := ParsePolicy("least").(LeastLoaded); !ok {
		t.Fatalf("least -> %T", p)
	}
	for _, name := range []string{"", "rr", "bogus"} {
		if p, ok := ParsePolicy(name).(*RoundRobin); !ok {
			t.Fatalf("%q -> %T, want *RoundRobin", name, p)
		}
	}
}
