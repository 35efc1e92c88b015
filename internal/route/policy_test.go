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

// TestLeastLoadedOrdersByWork: least work left wins; a member with
// maxQueue calls in flight goes last, the fewest in flight first; with
// equal work the fewest in flight wins, so calls that declare no work
// still spread.
func TestLeastLoadedOrdersByWork(t *testing.T) {
	p := LeastLoaded{}
	for _, c := range []struct {
		name string
		view []MemberView
		want int
	}{
		{"least work, not least in flight", []MemberView{{ID: 1, Work: 900, Load: 1}, {ID: 2, Work: 600, Load: 2}}, 1},
		{"at the bound goes last", []MemberView{{ID: 1, Work: 0, Load: maxQueue}, {ID: 2, Work: 5000, Load: 3}}, 1},
		{"all at the bound: fewest in flight", []MemberView{{ID: 1, Work: 0, Load: maxQueue + 1}, {ID: 2, Work: 9000, Load: maxQueue}}, 1},
		{"no work declared: fewest in flight", []MemberView{{ID: 1, Load: 2}, {ID: 2, Load: 1}, {ID: 3, Load: 1}}, 1},
		{"all equal: lowest id", []MemberView{{ID: 3, Work: 7}, {ID: 2, Work: 7}}, 1},
	} {
		if got := p.Pick(c.view); got != c.want {
			t.Errorf("%s: pick = %d, want %d", c.name, got, c.want)
		}
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
