package dist

import (
	"errors"
	"fmt"

	"reclose/internal/cfg"
	"reclose/internal/mgenv"
)

// Program is the portable description of what to explore: the MiniC
// source plus the closing mode, compiled identically on both sides of
// the wire (the search validates every result snapshot against its
// own compilation, so a skew would fail loudly, not merge garbage).
type Program struct {
	Source string `json:"source"`
	// Close selects how an open program is closed: "auto" (default,
	// the paper's construction), "naive" (most-general environment
	// over [0,NaiveDomain)), or "none" (reject open programs).
	Close       string `json:"close,omitempty"`
	NaiveDomain int    `json:"naive_domain,omitempty"`
}

// Compile builds the closed unit (mgenv.Prepare).
func (p *Program) Compile() (*cfg.Unit, error) {
	unit, _, err := mgenv.Prepare(p.Source, p.Close, p.NaiveDomain)
	if errors.Is(err, mgenv.ErrOpen) {
		err = fmt.Errorf("dist: %w", err)
	}
	return unit, err
}
