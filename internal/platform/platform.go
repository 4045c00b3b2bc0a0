// Package platform models the star-shaped master/worker computing platform
// of the paper (Fig. 1) and the resource parameters of its timing equations
// (Eqs. 1 and 2):
//
//	Tcomp_i = cLat_i + chunk/S_i
//	Tcomm_i = nLat_i + chunk/B_i + tLat_i
//
// The master serialises the (nLat_i + chunk/B_i) part of every transfer on
// its single outgoing port, while tLat_i (the network pipeline tail) may
// overlap with the next transfer. Workers have a "front end": they can
// receive data while computing.
package platform

import (
	"errors"
	"fmt"

	"rumr/internal/rng"
)

// Worker describes one worker processor and its link from the master.
// All rates are in workload units per second, all latencies in seconds.
type Worker struct {
	// S is the computation speed (units of workload per second).
	S float64
	// B is the transfer rate of the master->worker link (units/second).
	B float64
	// CLat is the fixed overhead to start a computation.
	CLat float64
	// NLat is the fixed overhead for the master to initiate a transfer.
	NLat float64
	// TLat is the pipeline tail between the master finishing its send and
	// the worker holding the last byte; it overlaps with later transfers.
	TLat float64
}

// Validate checks that the worker's parameters are physically meaningful.
func (w Worker) Validate() error {
	switch {
	case w.S <= 0:
		return fmt.Errorf("platform: worker speed S=%g must be positive", w.S)
	case w.B <= 0:
		return fmt.Errorf("platform: link rate B=%g must be positive", w.B)
	case w.CLat < 0, w.NLat < 0, w.TLat < 0:
		return fmt.Errorf("platform: negative latency (cLat=%g nLat=%g tLat=%g)", w.CLat, w.NLat, w.TLat)
	}
	return nil
}

// Platform is a star platform: a master connected to N workers.
type Platform struct {
	Workers []Worker
}

// N returns the number of workers.
func (p *Platform) N() int { return len(p.Workers) }

// Validate checks every worker and that the platform is non-empty.
func (p *Platform) Validate() error {
	if len(p.Workers) == 0 {
		return errors.New("platform: no workers")
	}
	for i, w := range p.Workers {
		if err := w.Validate(); err != nil {
			return fmt.Errorf("worker %d: %w", i, err)
		}
	}
	return nil
}

// Homogeneous reports whether every worker has identical parameters.
func (p *Platform) Homogeneous() bool {
	if len(p.Workers) < 2 {
		return true
	}
	first := p.Workers[0]
	for _, w := range p.Workers[1:] {
		if w != first {
			return false
		}
	}
	return true
}

// UtilizationRatio returns Σ S_i/B_i, the fraction of a round's compute
// time the master spends feeding the workers (ignoring latencies). Multi-
// round schedules with growing chunks require this to be below 1, the
// "full platform utilization" condition of the UMR work; the homogeneous
// case reduces to N·S/B < 1.
func (p *Platform) UtilizationRatio() float64 {
	sum := 0.0
	for _, w := range p.Workers {
		sum += w.S / w.B
	}
	return sum
}

// TotalSpeed returns Σ S_i, the aggregate compute rate.
func (p *Platform) TotalSpeed() float64 {
	sum := 0.0
	for _, w := range p.Workers {
		sum += w.S
	}
	return sum
}

// Homogeneous constructs a platform of n identical workers, matching the
// experimental setup of the paper (Table 1): speed s, link rate b, and the
// two latencies. tLat is taken as zero there; use the Worker slice directly
// for platforms that need it.
func Homogeneous(n int, s, b, cLat, nLat float64) *Platform {
	p := &Platform{}
	p.FillHomogeneous(n, s, b, cLat, nLat)
	return p
}

// FillHomogeneous overwrites p in place with n identical workers — the
// allocation-free form of Homogeneous used by batch sweeps that recycle
// one Platform value across configurations. The Workers slice is resized
// in place, growing only when n exceeds its capacity, and every entry is
// rewritten, so no state from a previous fill survives.
func (p *Platform) FillHomogeneous(n int, s, b, cLat, nLat float64) {
	if cap(p.Workers) < n {
		p.Workers = make([]Worker, n)
	}
	p.Workers = p.Workers[:n]
	w := Worker{S: s, B: b, CLat: cLat, NLat: nLat}
	for i := range p.Workers {
		p.Workers[i] = w
	}
}

// HeterogeneousSpec bounds the random platform generator.
type HeterogeneousSpec struct {
	N          int
	SMin, SMax float64
	BMin, BMax float64
	CLatMin    float64
	CLatMax    float64
	NLatMin    float64
	NLatMax    float64
	TLatMin    float64
	TLatMax    float64
}

// Heterogeneous draws a random platform uniformly within the spec's bounds,
// deterministically from src. It is used by the heterogeneity smoke studies
// and the property tests.
func Heterogeneous(spec HeterogeneousSpec, src *rng.Source) *Platform {
	ws := make([]Worker, spec.N)
	for i := range ws {
		ws[i] = Worker{
			S:    src.Uniform(spec.SMin, spec.SMax),
			B:    src.Uniform(spec.BMin, spec.BMax),
			CLat: src.Uniform(spec.CLatMin, spec.CLatMax),
			NLat: src.Uniform(spec.NLatMin, spec.NLatMax),
			TLat: src.Uniform(spec.TLatMin, spec.TLatMax),
		}
	}
	return &Platform{Workers: ws}
}
