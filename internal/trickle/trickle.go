// Package trickle implements the Trickle algorithm (Levis et al., RFC 6206
// style) that Deluge, Seluge and LR-Seluge use to pace advertisements
// (paper §IV-D.1): exponentially growing intervals with suppression when
// enough consistent advertisements are overheard, and a reset to the minimum
// interval on inconsistency (a neighbor with different state).
package trickle

import (
	"fmt"
	"math/rand"

	"lrseluge/internal/obs"
	"lrseluge/internal/sim"
)

// Config holds Trickle parameters.
type Config struct {
	// IMin is the minimum interval length.
	IMin sim.Time
	// IMax is the maximum interval length.
	IMax sim.Time
	// K is the redundancy constant: the node suppresses its own
	// transmission when it has heard at least K consistent messages in
	// the current interval.
	K int
}

// DefaultConfig matches Deluge's advertisement pacing (2 s .. 60 s, k = 1).
func DefaultConfig() Config {
	return Config{IMin: 2 * sim.Second, IMax: 60 * sim.Second, K: 1}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.IMin <= 0 || c.IMax < c.IMin || c.K < 1 {
		return fmt.Errorf("trickle: invalid config IMin=%v IMax=%v K=%d", c.IMin, c.IMax, c.K)
	}
	return nil
}

// Trickle is one node's advertisement timer. Not safe for concurrent use;
// like all protocol state it lives inside the single-threaded simulation.
type Trickle struct {
	eng      *sim.Engine
	rng      *rand.Rand
	cfg      Config
	transmit func()

	interval sim.Time
	counter  int
	fire     sim.Timer
	rollover sim.Timer
	running  bool
	obs      *obs.Timers

	// onFire and onRollover are the timer callbacks, bound once in New so
	// that starting an interval allocates nothing.
	onFire, onRollover func()
}

// New creates a stopped Trickle instance that calls transmit when the timer
// fires un-suppressed. Its callbacks are attributed to the trickle phase of
// the engine's phase timers, when installed.
func New(eng *sim.Engine, rng *rand.Rand, cfg Config, transmit func()) (*Trickle, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if eng == nil || rng == nil || transmit == nil {
		return nil, fmt.Errorf("trickle: nil dependency")
	}
	t := &Trickle{eng: eng, rng: rng, cfg: cfg, transmit: transmit, obs: eng.Obs()}
	t.onFire, t.onRollover = t.fired, t.rolledOver
	return t, nil
}

// Start begins operation at the minimum interval.
func (t *Trickle) Start() {
	if t.running {
		return
	}
	t.running = true
	t.interval = t.cfg.IMin
	t.beginInterval()
}

// Stop cancels all pending timers.
func (t *Trickle) Stop() {
	t.running = false
	t.fire.Stop()
	t.rollover.Stop()
}

// Running reports whether the timer is active.
func (t *Trickle) Running() bool { return t.running }

// Interval returns the current interval length, exposed for tests.
func (t *Trickle) Interval() sim.Time { return t.interval }

// HearConsistent records an overheard advertisement that matches our own
// state, contributing to suppression.
func (t *Trickle) HearConsistent() {
	if t.running {
		t.counter++
	}
}

// HearInconsistent resets the interval to IMin (if not already there),
// making the node advertise quickly while the network disagrees.
func (t *Trickle) HearInconsistent() {
	if !t.running {
		return
	}
	if t.interval > t.cfg.IMin {
		t.Reset()
	}
}

// Reset restarts the current interval at IMin regardless of its length.
func (t *Trickle) Reset() {
	if !t.running {
		return
	}
	t.fire.Stop()
	t.rollover.Stop()
	t.interval = t.cfg.IMin
	t.beginInterval()
}

func (t *Trickle) beginInterval() {
	t.counter = 0
	// Fire at a uniform random point in the second half of the interval.
	half := t.interval / 2
	fireAt := half + sim.Time(t.rng.Int63n(int64(half)+1))
	t.fire = t.eng.Schedule(fireAt, t.onFire)
	t.rollover = t.eng.Schedule(t.interval, t.onRollover)
}

// fired transmits unless the interval heard K consistent advertisements.
func (t *Trickle) fired() {
	t.obs.Start(obs.PhaseTrickle)
	if t.running && t.counter < t.cfg.K {
		t.transmit()
	}
	t.obs.End(obs.PhaseTrickle)
}

// rolledOver doubles the interval, up to IMax, and starts the next one.
func (t *Trickle) rolledOver() {
	t.obs.Start(obs.PhaseTrickle)
	if t.running {
		t.interval *= 2
		if t.interval > t.cfg.IMax {
			t.interval = t.cfg.IMax
		}
		t.beginInterval()
	}
	t.obs.End(obs.PhaseTrickle)
}
