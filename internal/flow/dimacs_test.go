package flow

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestDIMACSRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nw, s, tt, value := randomInstance(rng)
		nw.AddSupply(s, value)
		nw.AddSupply(tt, -value)
		var sb strings.Builder
		if err := nw.WriteDIMACS(&sb, "round trip\ninstance"); err != nil {
			return false
		}
		back, err := ReadDIMACS(strings.NewReader(sb.String()))
		if err != nil {
			return false
		}
		if back.N() != nw.N() || back.M() != nw.M() {
			return false
		}
		a, _, errA := bflow(nw, SSP, nil, nil)
		b, _, errB := bflow(back, SSP, nil, nil)
		if errA != nil || errB != nil {
			return errA != nil && errB != nil
		}
		return a.Cost == b.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReadDIMACSForms(t *testing.T) {
	src := `
c tiny instance
p min 3 3
n 1 2
n 3 -2
a 1 2 0 5 3
a 2 3 5 1
a 1 3 1 2 -4
`
	nw, err := ReadDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if nw.N() != 3 || nw.M() != 3 {
		t.Fatalf("shape %d/%d", nw.N(), nw.M())
	}
	from, to, lo, cap, cost := nw.Arc(1) // 4-field form
	if from != 1 || to != 2 || lo != 0 || cap != 5 || cost != 1 {
		t.Fatalf("arc 1: %d %d %d %d %d", from, to, lo, cap, cost)
	}
	_, _, lo, _, _ = nw.Arc(2)
	if lo != 1 {
		t.Fatalf("lower bound lost: %d", lo)
	}
	sol, _, err := bflow(nw, SSP, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.CheckFeasible(sol); err != nil {
		t.Fatal(err)
	}
}

func TestReadDIMACSErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"empty", ""},
		{"no problem line", "a 1 2 3 4\n"},
		{"node before problem", "n 1 5\np min 2 0\n"},
		{"duplicate problem", "p min 2 0\np min 2 0\n"},
		{"bad problem", "p max 2 1\n"},
		{"node out of range", "p min 2 0\nn 9 1\n"},
		{"bad arc fields", "p min 2 1\na 1 2\n"},
		{"arc out of range", "p min 2 1\na 1 5 1 1\n"},
		{"unknown record", "p min 1 0\nz\n"},
		{"negative nodes", "p min -3 0\n"},
	}
	for _, tc := range cases {
		if _, err := ReadDIMACS(strings.NewReader(tc.src)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestWriteDIMACSComment(t *testing.T) {
	nw := NewNetwork(2)
	nw.MustArc(0, 1, 0, 1, 1)
	var sb strings.Builder
	if err := nw.WriteDIMACS(&sb, "hello"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "c hello\n") {
		t.Fatalf("comment missing:\n%s", sb.String())
	}
}
