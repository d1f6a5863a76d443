package flow

import (
	"strings"
	"testing"
)

func TestWriteDIMACSComment(t *testing.T) {
	nw := NewNetwork(2)
	nw.MustArc(0, 1, 0, 1, 1)
	var sb strings.Builder
	if err := nw.WriteDIMACS(&sb, "hello", 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "c hello\n") {
		t.Fatalf("comment missing:\n%s", sb.String())
	}
}

// TestWriteDIMACSText pins the full export of a 3-node network with one
// lower bound: the value becomes the supply of s and the demand of t, node
// IDs are 1-based and the lower bound takes each arc line's fourth field.
func TestWriteDIMACSText(t *testing.T) {
	nw := NewNetwork(3)
	nw.MustArc(0, 1, 1, 2, -5)
	nw.MustArc(1, 2, 0, 2, 3)
	nw.MustArc(0, 2, 0, Unbounded, 0)
	var sb strings.Builder
	if err := nw.WriteDIMACS(&sb, "tiny\ninstance", 0, 2, 2); err != nil {
		t.Fatal(err)
	}
	want := `c tiny
c instance
p min 3 3
n 1 2
n 3 -2
a 1 2 1 2 -5
a 2 3 0 2 3
a 1 3 0 2305843009213693951 0
`
	if got := sb.String(); got != want {
		t.Fatalf("export:\n%s\nwant:\n%s", got, want)
	}
}
