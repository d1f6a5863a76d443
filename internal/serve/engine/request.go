package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/netbuild"
	"repro/internal/sched"
)

// Request is one POST /v1/allocate body: a TAC program plus allocation
// options. Every option has a serving default, so `{"program": "..."}` is a
// complete request.
type Request struct {
	// Program is the TAC program text (see internal/ir for the grammar).
	Program string `json:"program"`
	// Options tune the allocation; zero values select the defaults.
	Options RequestOptions `json:"options"`
}

// RequestOptions is the JSON-facing subset of core.Options plus the
// scheduling knobs, mirroring the leaflow flags.
type RequestOptions struct {
	// Registers is the register-file size R (default 16).
	Registers int `json:"registers"`
	// MemDivisor is the memory frequency divisor c (default 1, full speed).
	MemDivisor int `json:"mem_divisor"`
	// Style selects the graph construction: "density" (default) or
	// "allcompat".
	Style string `json:"style"`
	// Cost selects the energy model: "static" (default) or "activity".
	Cost string `json:"cost"`
	// SplitFull cuts lifetimes at every accessible step (default: minimal).
	SplitFull bool `json:"split_full"`
	// Scheduler is "list" (default), "asap" or "fds".
	Scheduler string `json:"scheduler"`
	// ALUs and Multipliers bound the list scheduler's resources
	// (defaults 2 and 1; 0 means unlimited).
	ALUs        int `json:"alus"`
	Multipliers int `json:"multipliers"`
}

// Request-size and option-range guards; hostile values are rejected with a
// *RequestError before any allocation work starts.
const (
	// DefaultMaxProgramBytes bounds the TAC program text accepted per
	// request unless Config.MaxProgramBytes overrides it.
	DefaultMaxProgramBytes = 256 << 10
	// MaxRegisters bounds Options.Registers.
	MaxRegisters = 4096
	// MaxMemDivisor bounds Options.MemDivisor.
	MaxMemDivisor = 64
	// MaxFuncUnits bounds Options.ALUs and Options.Multipliers.
	MaxFuncUnits = 256
)

// RequestError is the typed rejection for an undecodable or invalid
// request; the serving layer maps it to HTTP 400.
type RequestError struct {
	// Field names the offending request field ("body" for envelope-level
	// problems, "program" for TAC syntax errors).
	Field string
	// Reason is human-readable.
	Reason string
	// Err is the underlying cause, if any.
	Err error
}

// Error renders the field and reason.
func (e *RequestError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("serve: bad request: %s: %s: %v", e.Field, e.Reason, e.Err)
	}
	return fmt.Sprintf("serve: bad request: %s: %s", e.Field, e.Reason)
}

// Unwrap exposes the cause for errors.Is/As.
func (e *RequestError) Unwrap() error { return e.Err }

func badRequest(field, reason string, err error) *RequestError {
	return &RequestError{Field: field, Reason: reason, Err: err}
}

// DecodeRequest reads and validates one allocate request body. maxProgram
// bounds the program text length (0 selects DefaultMaxProgramBytes); the
// reader itself should already be length-limited by the HTTP layer. Every
// failure is a *RequestError.
func DecodeRequest(r io.Reader, maxProgram int) (*Request, error) {
	if maxProgram <= 0 {
		maxProgram = DefaultMaxProgramBytes
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("body", "invalid JSON", err)
	}
	// Trailing garbage after the JSON document is a malformed body too.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, badRequest("body", "trailing data after JSON document", nil)
	}
	if err := validateRequest(&req, maxProgram); err != nil {
		return nil, err
	}
	return &req, nil
}

// validateRequest applies defaults and range-checks the options. An empty
// style or scheduler is rewritten to "density" or "list", so every spelling
// of one request shares its cache entries and its route.
func validateRequest(req *Request, maxProgram int) error {
	if strings.TrimSpace(req.Program) == "" {
		return badRequest("program", "empty program", nil)
	}
	if len(req.Program) > maxProgram {
		return badRequest("program", fmt.Sprintf("program text %d bytes exceeds the %d-byte limit", len(req.Program), maxProgram), nil)
	}
	o := &req.Options
	if o.Registers == 0 {
		o.Registers = 16
	}
	if o.Registers < 0 || o.Registers > MaxRegisters {
		return badRequest("options.registers", fmt.Sprintf("register count %d outside [0, %d]", o.Registers, MaxRegisters), nil)
	}
	if o.MemDivisor == 0 {
		o.MemDivisor = 1
	}
	if o.MemDivisor < 1 || o.MemDivisor > MaxMemDivisor {
		return badRequest("options.mem_divisor", fmt.Sprintf("memory divisor %d outside [1, %d]", o.MemDivisor, MaxMemDivisor), nil)
	}
	switch o.Style {
	case "":
		o.Style = "density"
	case "density", "allcompat":
	default:
		return badRequest("options.style", fmt.Sprintf("unknown graph style %q", o.Style), nil)
	}
	switch o.Cost {
	case "", "static", "activity":
	default:
		return badRequest("options.cost", fmt.Sprintf("unknown cost model %q", o.Cost), nil)
	}
	switch o.Scheduler {
	case "":
		o.Scheduler = "list"
	case "list", "asap", "fds":
	default:
		return badRequest("options.scheduler", fmt.Sprintf("unknown scheduler %q", o.Scheduler), nil)
	}
	if o.ALUs < 0 || o.ALUs > MaxFuncUnits {
		return badRequest("options.alus", fmt.Sprintf("ALU count %d outside [0, %d]", o.ALUs, MaxFuncUnits), nil)
	}
	if o.Multipliers < 0 || o.Multipliers > MaxFuncUnits {
		return badRequest("options.multipliers", fmt.Sprintf("multiplier count %d outside [0, %d]", o.Multipliers, MaxFuncUnits), nil)
	}
	if o.ALUs == 0 && o.Multipliers == 0 && o.Scheduler == "list" {
		o.ALUs, o.Multipliers = 2, 1
	}
	return nil
}

// parseProgram parses the request's TAC text, wrapping syntax errors as
// *RequestError.
func parseProgram(req *Request) (*ir.Program, error) {
	prog, err := ir.ParseString(req.Program)
	if err != nil {
		return nil, badRequest("program", "TAC parse failed", err)
	}
	return prog, nil
}

// coreOptions lowers the validated request options to core.Options; cost and
// registers are per-solve inputs on the warm path, so they are returned
// separately.
func coreOptions(o RequestOptions) (core.Options, netbuild.CostOptions) {
	style := netbuild.DensityRegions
	if o.Style == "allcompat" {
		style = netbuild.AllCompatible
	}
	split := lifetime.SplitMinimal
	if o.SplitFull {
		split = lifetime.SplitFull
	}
	model := energy.OnChip256x16().WithMemVoltage(energy.VoltageForDivisor(o.MemDivisor))
	co := netbuild.CostOptions{Style: energy.Static, Model: model}
	if o.Cost == "activity" {
		co = netbuild.CostOptions{Style: energy.Activity, Model: model, H: energy.ConstHamming(energy.DefaultInitialActivity)}
	}
	return core.Options{
		Registers: o.Registers,
		Memory:    lifetime.MemoryAccess{Period: o.MemDivisor, Offset: o.MemDivisor},
		Split:     split,
		Style:     style,
		Cost:      co,
	}, co
}

// schedule runs the requested scheduler over one block.
func schedule(b *ir.Block, o RequestOptions) (*sched.Schedule, error) {
	switch o.Scheduler {
	case "list":
		return sched.List(b, sched.Resources{ALUs: o.ALUs, Multipliers: o.Multipliers})
	case "asap":
		return sched.ASAP(b)
	case "fds":
		return sched.ForceDirected(b, 0)
	default:
		return nil, badRequest("options.scheduler", fmt.Sprintf("unknown scheduler %q", o.Scheduler), nil)
	}
}

// cacheKey canonically hashes everything that determines the prepared flow
// topology: the split-relevant options (memory restriction, split policy,
// graph style) and the exact lifetime-set shape, variable names included —
// decoded results carry variable names, so two programs must collide only
// when a cached template reproduces their cold allocation byte-for-byte. The register count and cost model are deliberately
// excluded: both are repriced per solve on the warm path.
func cacheKey(set *lifetime.Set, o RequestOptions) string {
	h := sha256.New()
	var b strings.Builder
	fmt.Fprintf(&b, "v1|div=%d|splitfull=%t|style=%s|steps=%d",
		o.MemDivisor, o.SplitFull, o.Style, set.Steps)
	io.WriteString(h, b.String())
	for i := range set.Lifetimes {
		l := &set.Lifetimes[i]
		io.WriteString(h, "|")
		io.WriteString(h, l.Var)
		io.WriteString(h, ";")
		io.WriteString(h, strconv.Itoa(l.Write))
		if l.Input {
			io.WriteString(h, ";in")
		}
		if l.External {
			io.WriteString(h, ";ext")
		}
		for _, r := range l.Reads {
			io.WriteString(h, ",")
			io.WriteString(h, strconv.Itoa(r))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// RouteKey canonically hashes the request fields that determine which
// prepared templates serve it: the program text and every shape-relevant
// option (divisor, split policy, style, scheduler and its resource bounds). Register count and cost model are deliberately excluded — a
// register or cost sweep over one program then lands on a single shard and
// keeps re-solving that shard's warm templates. The key is computed on a
// validated copy of the request, without the program-size limit, so every
// spelling validateRequest treats as one request routes as one; a request
// that fails validation hashes as given, since every shard rejects it alike.
func RouteKey(req *Request) string {
	v := *req
	if validateRequest(&v, math.MaxInt) != nil {
		v = *req
	}
	o := &v.Options
	h := sha256.New()
	fmt.Fprintf(h, "rk1|div=%d|splitfull=%t|style=%s|sched=%s|alus=%d|mults=%d|",
		o.MemDivisor, o.SplitFull, o.Style, o.Scheduler, o.ALUs, o.Multipliers)
	io.WriteString(h, v.Program)
	return hex.EncodeToString(h.Sum(nil))
}

// Typed serving errors, mapped onto HTTP statuses by the handlers.
var (
	// ErrOverloaded rejects a request because the admission queue is full
	// (HTTP 429); the client should back off and retry.
	ErrOverloaded = errors.New("serve: admission queue full")
	// ErrClosed rejects a request because the engine is draining or stopped
	// (HTTP 503).
	ErrClosed = errors.New("serve: engine closed")
)

// InternalError wraps a recovered per-request panic (HTTP 500); the request
// that tripped it fails, the worker survives.
type InternalError struct {
	// Panic is the recovered value, stringified.
	Panic string
}

// Error renders the recovered panic.
func (e *InternalError) Error() string { return "serve: internal error: " + e.Panic }
