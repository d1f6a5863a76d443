package flow

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteDIMACS emits the problem of shipping value units from s to t over the
// network in the DIMACS minimum-cost flow format ("p min ...") so instances
// can be cross-checked against external solvers (cs2, lemon, ...). The value
// becomes the "n" lines of s (supply value) and t (demand value); arc lower
// bounds use the standard 4th field ("a src dst low cap cost"). Node IDs are
// 1-based per the format.
func (nw *Network) WriteDIMACS(w io.Writer, comment string, s, t int, value int64) error {
	bw := bufio.NewWriter(w)
	if comment != "" {
		for _, line := range strings.Split(comment, "\n") {
			fmt.Fprintf(bw, "c %s\n", line)
		}
	}
	fmt.Fprintf(bw, "p min %d %d\n", nw.n, len(nw.from))
	fmt.Fprintf(bw, "n %d %d\n", s+1, value)
	fmt.Fprintf(bw, "n %d %d\n", t+1, -value)
	for i := range nw.from {
		fmt.Fprintf(bw, "a %d %d %d %d %d\n", nw.from[i]+1, nw.to[i]+1, nw.lower[i], nw.capU[i], nw.cost[i])
	}
	return bw.Flush()
}
