package check

import (
	"testing"

	"repro/internal/flow"
)

// FuzzCheckNetwork builds a network and a fabricated solution from arbitrary
// fuzz bytes and runs the network and certification checks over them. The
// property under test: the validators never panic, whatever the input — they
// must diagnose, not crash.
func FuzzCheckNetwork(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 1, 2, 0, 5})
	f.Add([]byte{4, 0, 2, 1, 3, 255, 1, 2, 3, 0, 0, 2, 1, 1, 1})
	f.Add([]byte{2, 0, 1, 10, 10, 10, 0, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			ds := Network(flow.NewNetwork(0))
			if ds.HasErrors() {
				t.Fatalf("empty network rejected: %v", ds)
			}
			return
		}
		// First byte sizes the node set (1..16); quintuples of bytes become
		// arcs with clamped endpoints and small signed bounds/costs.
		n := 1 + int(data[0])%16
		nw := flow.NewNetwork(n)
		rest := data[1:]
		var flows []int64
		for len(rest) >= 5 {
			from := int(rest[0]) % n
			to := int(rest[1]) % n
			lower := int64(rest[2]%8) - 2 // may be negative or exceed cap
			capacity := int64(rest[3] % 8)
			cost := int64(rest[4]) - 128
			if _, err := nw.AddArc(from, to, lower, capacity, cost); err == nil {
				flows = append(flows, int64(rest[2]%4))
			}
			rest = rest[5:]
		}
		// A trailing byte picks the source and a value to check
		// conservation against.
		s, value := 0, int64(0)
		if len(rest) > 0 {
			s, value = int(rest[0])%n, int64(rest[0])-16
		}

		// Must never panic, only diagnose.
		_ = Network(nw).Err()

		// A fabricated solution with arbitrary flows and cost: both the
		// matching-length and the mismatched-length cases must be handled.
		sol := &flow.Solution{FlowByArc: flows, Cost: int64(len(data))}
		_, _ = Certify(nw, nil, sol)
		if len(flows) == nw.M() {
			good := nw.CheckFeasible(sol, s, n-1, value) == nil
			_, ds := Certify(nw, nil, sol)
			_ = good
			_ = ds
		}
	})
}
