package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strings"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/netbuild"
	"repro/internal/sched"
	"repro/internal/serve/engine"
	"repro/internal/workload"
)

// entry is one distinct request of a corpus with its certified reference
// answer.
type entry struct {
	name string
	text string                // TAC program
	opts engine.RequestOptions // options with the engine's defaults applied
	body []byte                // the POST /v1/allocate body
	ref  []block               // reference answer, one per block in program order
}

// block is the part of one block's answer the check compares. Replies
// decode into it too; CacheHit is read from replies and never compared.
type block struct {
	RegistersUsed   int                    `json:"registers_used"`
	MemoryLocations int                    `json:"memory_locations"`
	Energy          float64                `json:"energy"`
	BaselineEnergy  float64                `json:"baseline_energy"`
	Assignments     []engine.VarAssignment `json:"assignments"`
	CacheHit        bool                   `json:"cache_hit"`
}

// errRejected marks a program the allocation pipeline refuses, such as a
// RandomProgram whose input i0 is never read.
var errRejected = errors.New("program rejected")

// newEntry computes the reference answer of one request on the cold path —
// ir.ParseString, sched.List, lifetime.FromSchedule and core.Allocate — and
// certifies each optimum with check.Solution. A program the pipeline refuses
// yields errRejected; a reference that fails certification is an error of
// its own.
func newEntry(name, text string, sent engine.RequestOptions) (*entry, error) {
	body, err := json.Marshal(engine.Request{Program: text, Options: sent})
	if err != nil {
		return nil, err
	}
	e := &entry{name: name, text: text, opts: withDefaults(sent), body: body}
	prog, err := ir.ParseString(text)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", errRejected, name, err)
	}
	opts, _ := coreOptions(e.opts)
	for _, task := range prog.Tasks {
		for _, b := range task.Blocks {
			sc, err := sched.List(b, sched.Resources{ALUs: e.opts.ALUs, Multipliers: e.opts.Multipliers})
			if err != nil {
				return nil, fmt.Errorf("%w: %s: %v", errRejected, name, err)
			}
			set, err := lifetime.FromSchedule(sc)
			if err != nil {
				return nil, fmt.Errorf("%w: %s: %v", errRejected, name, err)
			}
			res, err := core.Allocate(set, opts)
			if err != nil {
				return nil, fmt.Errorf("%w: %s: %v", errRejected, name, err)
			}
			if err := check.Solution(res.Build, res.Solution, e.opts.Registers).Err(); err != nil {
				return nil, fmt.Errorf("%s: reference not certified: %w", name, err)
			}
			e.ref = append(e.ref, block{
				RegistersUsed:   res.RegistersUsed,
				MemoryLocations: res.MemoryLocations,
				Energy:          res.TotalEnergy,
				BaselineEnergy:  res.BaselineEnergy,
				Assignments:     assignments(res),
			})
		}
	}
	return e, nil
}

// withDefaults applies the engine's request defaults for the list scheduler:
// 16 registers, full-speed memory, 2 ALUs and 1 multiplier.
func withDefaults(o engine.RequestOptions) engine.RequestOptions {
	if o.Registers == 0 {
		o.Registers = 16
	}
	if o.MemDivisor == 0 {
		o.MemDivisor = 1
	}
	if o.ALUs == 0 && o.Multipliers == 0 {
		o.ALUs, o.Multipliers = 2, 1
	}
	return o
}

// coreOptions lowers request options to the core options the engine uses:
// density-region graph, minimal splitting and the static energy model at the
// divisor's memory voltage.
func coreOptions(o engine.RequestOptions) (core.Options, netbuild.CostOptions) {
	model := energy.OnChip256x16().WithMemVoltage(energy.VoltageForDivisor(o.MemDivisor))
	co := netbuild.CostOptions{Style: energy.Static, Model: model}
	return core.Options{
		Registers: o.Registers,
		Memory:    lifetime.MemoryAccess{Period: o.MemDivisor, Offset: o.MemDivisor},
		Split:     lifetime.SplitMinimal,
		Style:     netbuild.DensityRegions,
		Cost:      co,
	}, co
}

// assignments lists each variable's first-segment register (-1 for memory)
// in lifetime order, the form the engine replies with.
func assignments(res *core.Result) []engine.VarAssignment {
	var out []engine.VarAssignment
	seen := make(map[string]bool)
	for i, seg := range res.Build.Segments {
		if seen[seg.Var] {
			continue
		}
		seen[seg.Var] = true
		reg := -1
		if res.InRegister[i] {
			reg = res.RegOf[i]
		}
		out = append(out, engine.VarAssignment{Var: seg.Var, Register: reg})
	}
	return out
}

// verify checks one reply against e's reference: HTTP 200 and, per block,
// the energies, registers used, memory locations and assignments. It also
// reports whether every block was a template-cache hit.
func verify(e *entry, code int, body []byte) (hit bool, err error) {
	if code != http.StatusOK {
		return false, fmt.Errorf("%s: HTTP %d: %s", e.name, code, bytes.TrimSpace(body))
	}
	var r struct {
		Blocks []block `json:"blocks"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return false, fmt.Errorf("%s: reply: %w", e.name, err)
	}
	if len(r.Blocks) != len(e.ref) {
		return false, fmt.Errorf("%s: %d blocks in reply, want %d", e.name, len(r.Blocks), len(e.ref))
	}
	hit = true
	for i, got := range r.Blocks {
		want := e.ref[i]
		hit = hit && got.CacheHit
		if got.RegistersUsed != want.RegistersUsed || got.MemoryLocations != want.MemoryLocations ||
			!sameEnergy(got.Energy, want.Energy) || !sameEnergy(got.BaselineEnergy, want.BaselineEnergy) ||
			!slices.Equal(got.Assignments, want.Assignments) {
			return hit, fmt.Errorf("%s block %d: reply %+v differs from reference %+v", e.name, i, got, want)
		}
	}
	return hit, nil
}

// sameEnergy compares energies to a relative 1e-9: the same optimum summed
// in another order may differ in the last bits.
func sameEnergy(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// format renders p as TAC text.
func format(p *ir.Program) string {
	var b strings.Builder
	_ = ir.Format(&b, p) // ir.Format fails only when its writer does; a Builder never does
	return b.String()
}

// hotCorpus returns serve_hot's 14 shapes: the three figure kernels, the
// ewf, arf and fdct8 HLS kernels and eight RandomProgram(n=24) programs the
// pipeline accepts, plus the number of random programs it rejected.
func hotCorpus(seed int64) ([]*entry, int, error) {
	fixed, err := workload.Programs(rand.New(rand.NewSource(seed)), 1, 24)
	if err != nil {
		return nil, 0, err
	}
	var out []*entry
	for _, class := range []string{"figures", "hlsbench"} {
		for _, p := range fixed[class] {
			e, err := newEntry(p.Tasks[0].Name, format(p), engine.RequestOptions{})
			if err != nil {
				return nil, 0, err
			}
			out = append(out, e)
		}
	}
	random, dropped, err := randomCorpus(seed, 8)
	return append(out, random...), dropped, err
}

// randomCorpus draws RandomProgram(n=24) programs from seed until n distinct
// ones pass the reference, and returns how many it dropped because the
// pipeline rejects them.
func randomCorpus(seed int64, n int) ([]*entry, int, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	var out []*entry
	dropped := 0
	for len(out) < n {
		if dropped > n {
			return nil, dropped, fmt.Errorf("%d random programs rejected for %d accepted", dropped, len(out))
		}
		p, err := workload.RandomProgram(rng, 24)
		if err != nil {
			return nil, dropped, err
		}
		key := format(p)
		if seen[key] {
			continue
		}
		seen[key] = true
		name := fmt.Sprintf("random%03d", len(out))
		p.Tasks[0].Name = name
		e, err := newEntry(name, format(p), engine.RequestOptions{})
		if errors.Is(err, errRejected) {
			dropped++
			continue
		}
		if err != nil {
			return nil, dropped, err
		}
		out = append(out, e)
	}
	return out, dropped, nil
}
