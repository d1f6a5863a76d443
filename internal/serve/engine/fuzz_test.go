package engine

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// FuzzAllocateRequest feeds arbitrary bytes through the full request path —
// DecodeRequest then Engine.Allocate — and demands that nothing panics and
// every failure is a typed serving error. The seed corpus mixes valid bodies
// with the malformed shapes the decoder must reject.
func FuzzAllocateRequest(f *testing.F) {
	seeds := []string{
		// Valid: minimal, with options, multi-block options.
		`{"program":"task t\nblock b\nin a b\nc = a + b\nout c\nend\n"}`,
		`{"program":"task t\nblock b\nin a b\nc = a * b\nd = c + a\nout d\nend\n","options":{"registers":4,"mem_divisor":2,"style":"density","cost":"activity","scheduler":"asap"}}`,
		`{"program":"task t\nblock b\nin x\ny = x + x\nout y\nend\n","options":{"scheduler":"fds","split_full":true}}`,
		// Malformed envelopes.
		``,
		`{`,
		`null`,
		`42`,
		`"just a string"`,
		`{"program":"task t\nblock b\nin a\nout a\nend\n"} trailing`,
		`{"program":123}`,
		`{"prog":"unknown field"}`,
		`{"program":"task t\nblock b\nin a\nout a\nend\n","options":{"bogus":true}}`,
		// The removed engine option is an unknown field too.
		"{\"program\":\"task t\\nblock b\\nin a b\\nc = a + b\\nout c\\nend\\n\",\"options\":{\"engine\":\"quantum\"}}",
		// Valid JSON, hostile option values.
		`{"program":"task t\nblock b\nin a b\nc = a + b\nout c\nend\n","options":{"registers":-3}}`,
		`{"program":"task t\nblock b\nin a b\nc = a + b\nout c\nend\n","options":{"registers":1000000}}`,
		`{"program":"task t\nblock b\nin a b\nc = a + b\nout c\nend\n","options":{"mem_divisor":9999}}`,
		`{"program":"task t\nblock b\nin a b\nc = a + b\nout c\nend\n","options":{"scheduler":"../../etc"}}`,
		// TAC-level breakage.
		`{"program":"not a program"}`,
		`{"program":"task t\nblock b\nc = undefined1 + undefined2\nout c\nend\n"}`,
		`{"program":"task t\nblock b\nin a\na = a +\nend\n"}`,
		"{\"program\":\"\x00\x01\x02\"}",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	e := New(Config{Workers: 2, QueueDepth: 16, RequestTimeout: 5 * time.Second, MaxProgramBytes: 8 << 10})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		e.Close(ctx)
	})

	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeRequest(bytes.NewReader(body), 8<<10)
		if err != nil {
			var re *RequestError
			if !errors.As(err, &re) {
				t.Fatalf("DecodeRequest returned untyped error %T: %v", err, err)
			}
			return
		}
		_, err = e.Allocate(context.Background(), req)
		if err == nil {
			return
		}
		var re *RequestError
		switch {
		case errors.As(err, &re):
		case errors.Is(err, ErrOverloaded), errors.Is(err, ErrClosed):
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		default:
			// *InternalError means a worker panicked — exactly what fuzzing
			// must surface — and anything else is an untyped leak.
			t.Fatalf("Allocate returned non-request error %T: %v", err, err)
		}
	})
}
