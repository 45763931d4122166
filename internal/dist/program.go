package dist

import (
	"errors"
	"fmt"

	"reclose/internal/cfg"
	"reclose/internal/explore"
	"reclose/internal/interp"
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

// EncodeOptions projects the serializable subset of an option set onto
// the wire form. Callback fields are dropped (documented on
// WireOptions); Interest must be supplied by the caller because a
// compiled Score function cannot be inverted.
func EncodeOptions(opt explore.Options, interest []string) WireOptions {
	return WireOptions{
		Engine:        opt.Engine.String(),
		MaxDepth:      opt.MaxDepth,
		POR:           opt.POR.String(),
		NoSleep:       opt.NoSleep,
		Search:        opt.Search.String(),
		Interest:      interest,
		StateCache:    opt.StateCache,
		CacheShards:   opt.CacheShards,
		MaxCacheBytes: opt.MaxCacheBytes,
		MaxIncidents:  opt.MaxIncidents,
		Workers:       opt.Workers,
		SpillDepth:    opt.SpillDepth,
		SnapshotSpill: opt.SnapshotSpill,
		StopOnFirst:   opt.StopOnViolation,
		Liveness:      opt.Liveness,
	}
}

// DecodeOptions reconstructs an explore.Options from the wire form,
// validating the mode strings.
func DecodeOptions(w WireOptions) (explore.Options, error) {
	var opt explore.Options
	eng, err := interp.ParseEngine(w.Engine)
	if err != nil {
		return opt, err
	}
	por, err := explore.ParsePOR(w.POR)
	if err != nil {
		return opt, err
	}
	search, err := explore.ParseSearch(w.Search)
	if err != nil {
		return opt, err
	}
	opt = explore.Options{
		Engine:          eng,
		MaxDepth:        w.MaxDepth,
		POR:             por,
		NoSleep:         w.NoSleep,
		Search:          search,
		StateCache:      w.StateCache,
		CacheShards:     w.CacheShards,
		MaxCacheBytes:   w.MaxCacheBytes,
		MaxIncidents:    w.MaxIncidents,
		Workers:         w.Workers,
		SpillDepth:      w.SpillDepth,
		SnapshotSpill:   w.SnapshotSpill,
		StopOnViolation: w.StopOnFirst,
		Liveness:        w.Liveness,
	}
	if len(w.Interest) > 0 {
		opt.Score = explore.InterestScore(w.Interest...)
	}
	return opt, nil
}
