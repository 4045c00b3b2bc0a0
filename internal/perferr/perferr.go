// Package perferr implements the performance-prediction-error model of the
// paper (§4.1) plus the extensions its future-work section sketches.
//
// The paper's model: the ratio of predicted to effective duration of every
// data transfer and every computation is drawn i.i.d. from a normal
// distribution with mean 1 and standard deviation `error`, truncated to
// stay positive. An effective duration is therefore predicted/ratio. The
// distribution is stationary over the run.
//
// Extensions provided here and exercised by the ablation benches:
//   - Uniform: ratio ~ U(1-√3·error, 1+√3·error) (same mean and sd);
//   - RandomWalk: a slowly drifting mean, a mild violation of stationarity;
//   - Estimator: an online estimator of `error` from observed
//     predicted/effective pairs (the paper's future-work hook).
package perferr

import (
	"math"

	"rumr/internal/rng"
)

// Model perturbs predicted durations into effective durations.
// Implementations must be deterministic given their Source.
type Model interface {
	// Perturb maps a predicted duration (seconds) to an effective one.
	// It must return a positive duration for positive input and zero for
	// zero input.
	Perturb(predicted float64) float64
	// Error returns the nominal magnitude parameter of the model (the
	// paper's `error`), used by schedulers that know it.
	Error() float64
}

// Kind selects the distribution of the prediction-error ratio. A kind
// becomes a ratio in Tape.Perturb only, so a new kind is added there and
// here.
type Kind int

const (
	// NormalError is the paper's model: the ratio is normal with mean 1
	// and sd = error, truncated positive (TruncNormal).
	NormalError Kind = iota
	// UniformError is the alternative the paper reports as "essentially
	// similar": a uniform ratio with the same mean and sd (Uniform).
	UniformError
)

// Stream is one reusable error stream — the transfer or the computation
// side of a run. It owns its source and the tape of ratios it has drawn,
// so re-splitting and replaying allocate nothing once the tape has grown
// to a run's length. The bound tape points into the Stream, which
// therefore must not be copied or moved while the tape is in use.
type Stream struct {
	src  rng.Source
	tape Tape
}

// Split reseeds the stream from master's next output, advancing master
// exactly as master.Split does, so the stream draws what a Source
// returned by master.Split would.
func (s *Stream) Split(master *rng.Source) { master.SplitInto(&s.src) }

// record empties the stream's tape and returns it bound to (kind, err):
// Perfect when err <= 0, otherwise the *Tape drawing from the stream's
// source.
func (s *Stream) record(kind Kind, err float64) Model {
	if err <= 0 {
		return Perfect{}
	}
	ratios := s.tape.ratios[:0]
	if ratios == nil {
		// Skip append's smallest growth steps: a fresh stream would
		// otherwise reallocate its tape six times before 64 ratios.
		ratios = make([]float64, 0, 64)
	}
	s.tape = Tape{kind: kind, err: err, src: &s.src, ratios: ratios}
	return &s.tape
}

// Pair is the two error streams of one run (or of one job in a
// multi-job run): transfers and computations.
type Pair struct{ Comm, Comp Stream }

// Split re-splits both streams from master, comm first, then comp, and
// returns their recording models bound to (kind, err). Each draws the
// ratios a *TruncNormal or *Uniform on a master.Split source would, and
// records them for Replay.
func (p *Pair) Split(master *rng.Source, kind Kind, err float64) (comm, comp Model) {
	p.Comm.Split(master)
	p.Comp.Split(master)
	return p.Comm.record(kind, err), p.Comp.record(kind, err)
}

// Replay rewinds both streams to the start of the last Split: the models
// it returned read back the ratios recorded since, and past the tape's
// end draw fresh ones from the same, still-advancing source. A replayed
// run therefore perturbs exactly as a run on a freshly split Pair with
// the same master state would — common random numbers, each ratio drawn
// once however many runs consume it.
func (p *Pair) Replay() {
	p.Comm.tape.pos = 0
	p.Comp.tape.pos = 0
}

// Tape is the recording model Pair.Split binds: the paper's ratio
// distribution of its Kind, drawn from its stream's source, with every
// drawn ratio kept so Pair.Replay can serve them again.
type Tape struct {
	kind   Kind
	err    float64
	src    *rng.Source
	ratios []float64 // every ratio drawn since the last Split
	pos    int       // next ratio to serve
}

// Perturb returns predicted/ratio with the tape's next ratio, drawing and
// recording a fresh one past the tape's end. A zero prediction consumes
// no ratio.
func (t *Tape) Perturb(predicted float64) float64 {
	if predicted == 0 {
		return predicted
	}
	if t.pos == len(t.ratios) {
		if t.kind == UniformError {
			t.ratios = append(t.ratios, uniformRatio(t.src, t.err))
		} else {
			t.ratios = append(t.ratios, t.src.TruncNormal(1, t.err, minRatio))
		}
	}
	ratio := t.ratios[t.pos]
	t.pos++
	return predicted / ratio
}

// Error returns the model's magnitude parameter.
func (t *Tape) Error() float64 { return t.err }

// Kind returns the ratio distribution the tape draws from.
func (t *Tape) Kind() Kind { return t.kind }

// Perfect is the zero-error model: effective == predicted.
type Perfect struct{}

// Perturb returns the prediction unchanged.
func (Perfect) Perturb(predicted float64) float64 { return predicted }

// Error returns 0.
func (Perfect) Error() float64 { return 0 }

// minRatio keeps pathological draws from producing absurd durations: a
// ratio below 0.05 would make a task 20x slower than predicted, far outside
// the regime the paper studies (error <= 0.5).
const minRatio = 0.05

// TruncNormal is the paper's model: ratio ~ N(1, error) truncated positive.
type TruncNormal struct {
	Err float64
	Src *rng.Source
}

// NewTruncNormal returns the paper's error model with the given magnitude,
// drawing from src.
func NewTruncNormal(err float64, src *rng.Source) *TruncNormal {
	return &TruncNormal{Err: err, Src: src}
}

// Perturb returns predicted/ratio with ratio ~ TruncNormal(1, Err).
func (m *TruncNormal) Perturb(predicted float64) float64 {
	if predicted == 0 || m.Err <= 0 {
		return predicted
	}
	return predicted / m.Src.TruncNormal(1, m.Err, minRatio)
}

// Error returns the model's standard deviation parameter.
func (m *TruncNormal) Error() float64 { return m.Err }

// Uniform draws the ratio from a uniform distribution with mean 1 and the
// same standard deviation as the normal model: U(1-√3·err, 1+√3·err),
// truncated below at minRatio. The paper reports results under a uniform
// model were "essentially similar"; the ablation bench checks that.
type Uniform struct {
	Err float64
	Src *rng.Source
}

// NewUniform returns the uniform-ratio error model.
func NewUniform(err float64, src *rng.Source) *Uniform {
	return &Uniform{Err: err, Src: src}
}

// Perturb returns predicted/ratio with a uniform ratio.
func (m *Uniform) Perturb(predicted float64) float64 {
	if predicted == 0 || m.Err <= 0 {
		return predicted
	}
	return predicted / uniformRatio(m.Src, m.Err)
}

// uniformRatio draws one ratio from U(1-√3·err, 1+√3·err), truncated
// below at minRatio.
func uniformRatio(src *rng.Source, err float64) float64 {
	half := math.Sqrt(3) * err
	ratio := src.Uniform(1-half, 1+half)
	if ratio < minRatio {
		ratio = minRatio
	}
	return ratio
}

// Error returns the model's magnitude parameter.
func (m *Uniform) Error() float64 { return m.Err }

// RandomWalk perturbs with a truncated normal whose mean drifts as a
// bounded random walk, modelling slowly varying background load: mean_{k+1}
// = clamp(mean_k + N(0, drift), [1-span, 1+span]). With drift = 0 it
// reduces exactly to TruncNormal.
type RandomWalk struct {
	Err   float64
	Drift float64
	Span  float64
	Src   *rng.Source
	mean  float64
}

// NewRandomWalk returns a non-stationary model with per-draw standard
// deviation err, mean step size drift, and mean clamped to [1-span, 1+span].
func NewRandomWalk(err, drift, span float64, src *rng.Source) *RandomWalk {
	return &RandomWalk{Err: err, Drift: drift, Span: span, Src: src, mean: 1}
}

// Perturb returns predicted/ratio and advances the drifting mean.
func (m *RandomWalk) Perturb(predicted float64) float64 {
	if predicted == 0 {
		return 0
	}
	ratio := m.Src.TruncNormal(m.mean, m.Err, minRatio)
	m.mean += m.Src.NormalMuSigma(0, m.Drift)
	if m.mean < 1-m.Span {
		m.mean = 1 - m.Span
	}
	if m.mean > 1+m.Span {
		m.mean = 1 + m.Span
	}
	return predicted / ratio
}

// Error returns the per-draw magnitude parameter.
func (m *RandomWalk) Error() float64 { return m.Err }

// Estimator measures the error magnitude online from completed work: it
// accumulates the sample standard deviation of observed predicted/effective
// ratios. This is the hook the paper's conclusion proposes for feeding RUMR
// a measured error value at run time.
type Estimator struct {
	n    int
	mean float64
	m2   float64
}

// Observe records one completed task's predicted and effective durations.
// Non-positive durations are ignored.
func (e *Estimator) Observe(predicted, effective float64) {
	if predicted <= 0 || effective <= 0 {
		return
	}
	ratio := predicted / effective
	e.n++
	delta := ratio - e.mean
	e.mean += delta / float64(e.n)
	e.m2 += delta * (ratio - e.mean)
}

// N returns the number of observations.
func (e *Estimator) N() int { return e.n }

// Estimate returns the current estimate of `error` (the sd of the ratio),
// or 0 with fewer than two observations.
func (e *Estimator) Estimate() float64 {
	if e.n < 2 {
		return 0
	}
	return math.Sqrt(e.m2 / float64(e.n-1))
}
