package main

import (
	"time"

	"rumr/internal/engine"
	"rumr/internal/perferr"
)

// callTimes accumulates the wall time spent inside one kind of call.
// It is used by one goroutine at a time, like the runs it observes.
type callTimes struct {
	Calls    int64
	Declines int64 // Next calls that returned no chunk
	Nanos    int64
}

func (c *callTimes) add(o callTimes) {
	c.Calls += o.Calls
	c.Declines += o.Declines
	c.Nanos += o.Nanos
}

// timedDispatcher times every Next call of the dispatcher it wraps.
type timedDispatcher struct {
	d engine.Dispatcher
	t *callTimes
}

func (w *timedDispatcher) Next(v *engine.View) (engine.Chunk, bool) {
	start := time.Now()
	c, ok := w.d.Next(v)
	w.t.Nanos += time.Since(start).Nanoseconds()
	w.t.Calls++
	if !ok {
		w.t.Declines++
	}
	return c, ok
}

// timeDispatcher wraps d so its Next calls are timed into t. The wrapper
// implements engine.Observer, engine.FaultAware and
// engine.ExhaustedDispatcher exactly when d does, forwarding to d, so the
// engine takes the same paths with and without it.
func timeDispatcher(d engine.Dispatcher, t *callTimes) engine.Dispatcher {
	w := &timedDispatcher{d: d, t: t}
	o, isO := d.(engine.Observer)
	f, isF := d.(engine.FaultAware)
	e, isE := d.(engine.ExhaustedDispatcher)
	switch {
	case isO && isF && isE:
		return struct {
			*timedDispatcher
			engine.Observer
			engine.FaultAware
			engine.ExhaustedDispatcher
		}{w, o, f, e}
	case isO && isF:
		return struct {
			*timedDispatcher
			engine.Observer
			engine.FaultAware
		}{w, o, f}
	case isO && isE:
		return struct {
			*timedDispatcher
			engine.Observer
			engine.ExhaustedDispatcher
		}{w, o, e}
	case isF && isE:
		return struct {
			*timedDispatcher
			engine.FaultAware
			engine.ExhaustedDispatcher
		}{w, f, e}
	case isO:
		return struct {
			*timedDispatcher
			engine.Observer
		}{w, o}
	case isF:
		return struct {
			*timedDispatcher
			engine.FaultAware
		}{w, f}
	case isE:
		return struct {
			*timedDispatcher
			engine.ExhaustedDispatcher
		}{w, e}
	}
	return w
}

// timedModel times every Perturb call (one error draw) of the model it
// wraps.
type timedModel struct {
	m perferr.Model
	t *callTimes
}

func (w *timedModel) Perturb(predicted float64) float64 {
	start := time.Now()
	v := w.m.Perturb(predicted)
	w.t.Nanos += time.Since(start).Nanoseconds()
	w.t.Calls++
	return v
}

func (w *timedModel) Error() float64 { return w.m.Error() }

// timeModel wraps m so its draws are timed into t. Perfect prediction
// draws nothing and is returned as is.
func timeModel(m perferr.Model, t *callTimes) perferr.Model {
	switch m.(type) {
	case nil, perferr.Perfect, *perferr.Perfect:
		return m
	}
	return &timedModel{m: m, t: t}
}

// clockCost is the mean interval time.Since reports for an empty timed
// region: the clock's own share of every timed call's measurement.
func clockCost() time.Duration {
	const n = 1 << 16
	var total int64
	for i := 0; i < n; i++ {
		t := time.Now()
		total += time.Since(t).Nanoseconds()
	}
	return time.Duration(total / n)
}
