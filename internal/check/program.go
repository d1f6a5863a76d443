package check

import (
	"fmt"

	"repro/internal/ir"
)

// Program validates every block of an IR program: SSA-style single
// assignment, use-before-def, operator arity, outputs defined, and no
// redefinition of inputs. Codes LEA1001–LEA1006. It subsumes
// ir.Block.Validate but reports every violation instead of the first.
func Program(p *ir.Program) Diagnostics {
	var ds Diagnostics
	for _, task := range p.Tasks {
		for _, b := range task.Blocks {
			checkBlock(&ds, b)
		}
	}
	return ds
}

// checkBlock validates one block into ds.
func checkBlock(ds *Diagnostics, b *ir.Block) {
	pos := func(i int) string { return fmt.Sprintf("%s#%d", b.Name, i) }
	defined := make(map[string]bool, len(b.Inputs)+len(b.Instrs))
	inputs := make(map[string]bool, len(b.Inputs))
	for _, v := range b.Inputs {
		if defined[v] {
			ds.errorf("LEA1001", b.Name, "duplicate input %q", v)
		}
		defined[v] = true
		inputs[v] = true
	}
	for i, in := range b.Instrs {
		if want := in.Op.Arity(); len(in.Src) != want {
			ds.errorf("LEA1002", pos(i), "%s takes %d operands, got %d", in.Op, want, len(in.Src))
		}
		for _, src := range in.Src {
			if !defined[src] {
				ds.errorf("LEA1003", pos(i), "%q used before definition", src)
			}
		}
		if in.Dst == "" {
			ds.errorf("LEA1004", pos(i), "instruction has no destination")
			continue
		}
		if inputs[in.Dst] {
			ds.errorf("LEA1005", pos(i), "input %q redefined", in.Dst)
		} else if defined[in.Dst] {
			ds.errorf("LEA1004", pos(i), "%q assigned more than once (not SSA)", in.Dst)
		}
		defined[in.Dst] = true
	}
	for _, out := range b.Outputs {
		if !defined[out] {
			ds.errorf("LEA1006", b.Name, "output %q is never defined", out)
		}
	}
}

// Dataflow validates the block-to-block handover of a program: every block
// input is an output of an earlier block (in task order) or, when
// allowExternal, a program input; and every value has exactly one producer.
// Codes LEA1010 (missing producer) and LEA1011 (duplicate producer).
func Dataflow(p *ir.Program, allowExternal bool) Diagnostics {
	var ds Diagnostics
	produced := make(map[string]string) // value -> producing block
	for _, task := range p.Tasks {
		for _, b := range task.Blocks {
			for _, in := range b.Inputs {
				if _, ok := produced[in]; !ok && !allowExternal {
					ds.errorf("LEA1010", b.Name, "input %q has no producer", in)
				}
			}
			for _, out := range b.Outputs {
				if prev, ok := produced[out]; ok {
					ds.errorf("LEA1011", b.Name, "value %q produced by both %q and %q", out, prev, b.Name)
					continue
				}
				produced[out] = b.Name
			}
		}
	}
	return ds
}
