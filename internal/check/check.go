// Package check is level 2 of the repo's two-level static-analysis layer:
// structured domain validators over the pipeline's runtime artifacts (level 1
// is internal/analysis, which lints Go source). Every validator returns
// Diagnostics — positioned, coded findings — instead of a bare error, so
// callers can report all problems at once, and the pipeline can re-certify
// solver outputs (flow conservation, complementary slackness, energy
// re-derivation) behind a debug flag.
//
// Code ranges by artifact:
//
//	LEA10xx  IR programs      (use-before-def, single assignment, handover)
//	LEA11xx  schedules        (dependences, resource feasibility)
//	LEA12xx  lifetimes        (set validity, split consistency, regions)
//	LEA13xx  built networks   (bounds, DAG, construction)
//	LEA14xx  solver outputs   (conservation, optimality certificate, energy)
package check

import (
	"fmt"
	"strings"
)

// Severity grades a diagnostic.
type Severity int

const (
	// SevError marks a violated invariant; Diagnostics.Err surfaces it.
	SevError Severity = iota
	// SevWarn marks a suspicious but not invalid artifact.
	SevWarn
)

// String names the severity.
func (s Severity) String() string {
	if s == SevWarn {
		return "warn"
	}
	return "error"
}

// Diagnostic is one structured finding of a domain validator.
type Diagnostic struct {
	Severity Severity
	// Code is the stable LEA#### identifier of the violated invariant.
	Code string
	// Pos locates the finding inside the artifact (a block name, an arc id,
	// a control step...), not a source position.
	Pos string
	// Msg describes the violation.
	Msg string
}

// String renders the diagnostic as "severity pos: CODE: msg".
func (d Diagnostic) String() string {
	if d.Pos == "" {
		return fmt.Sprintf("%s: %s: %s", d.Severity, d.Code, d.Msg)
	}
	return fmt.Sprintf("%s %s: %s: %s", d.Severity, d.Pos, d.Code, d.Msg)
}

// Diagnostics is an ordered list of findings.
type Diagnostics []Diagnostic

// errorf appends a SevError diagnostic.
func (ds *Diagnostics) errorf(code, pos, format string, args ...any) {
	*ds = append(*ds, Diagnostic{Severity: SevError, Code: code, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// warnf appends a SevWarn diagnostic.
func (ds *Diagnostics) warnf(code, pos, format string, args ...any) {
	*ds = append(*ds, Diagnostic{Severity: SevWarn, Code: code, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Err folds the diagnostics into a single error covering every SevError
// entry, or nil when none is an error. Warnings never produce an error.
func (ds Diagnostics) Err() error {
	var msgs []string
	for _, d := range ds {
		if d.Severity == SevError {
			msgs = append(msgs, d.String())
		}
	}
	if len(msgs) == 0 {
		return nil
	}
	return fmt.Errorf("check: %d violation(s):\n\t%s", len(msgs), strings.Join(msgs, "\n\t"))
}

// HasErrors reports whether any diagnostic is SevError.
func (ds Diagnostics) HasErrors() bool {
	for _, d := range ds {
		if d.Severity == SevError {
			return true
		}
	}
	return false
}
