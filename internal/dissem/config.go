package dissem

import (
	"fmt"

	"lrseluge/internal/sim"
	"lrseluge/internal/trickle"
)

// Config holds the protocol timing and defense knobs shared by all three
// protocols.
type Config struct {
	// Trickle paces advertisements in MAINTAIN.
	Trickle trickle.Config

	// RxBackoffMin/Max bound the random delay before sending a SNACK,
	// allowing overhearing-based suppression.
	RxBackoffMin sim.Time
	RxBackoffMax sim.Time

	// RxRetryTimeout is how long a requester waits for progress on the
	// current unit before re-sending its SNACK.
	RxRetryTimeout sim.Time

	// MaxSuppressions caps how many times an own pending SNACK is pushed
	// back by overheard requests before it is sent regardless.
	MaxSuppressions int

	// TxSpacing is extra idle time a server inserts between served data
	// packets on top of radio serialization.
	TxSpacing sim.Time

	// TxJitterMax adds a uniform random delay before each served data
	// packet so concurrent servers overhear (and suppress) each other
	// instead of duplicating transmissions back to back.
	TxJitterMax sim.Time

	// TxAggregationDelay is how long an idle server waits after the first
	// SNACK before transmitting, so requests from several neighbors
	// accumulate in the tracking table and one transmission can satisfy
	// many of them (the round collection the paper's scheduler assumes).
	TxAggregationDelay sim.Time

	// SigVerifyDelay is the virtual cost of one signature verification
	// (1.12 s for ECDSA on a Tmote Sky, paper §III-A [16]).
	SigVerifyDelay sim.Time

	// SNACKServeLimit, when positive, activates the denial-of-receipt
	// defense (paper §IV-E): once a server has transmitted this many data
	// packets of one unit on behalf of a single neighbor, further SNACKs
	// from that neighbor for that unit are ignored.
	SNACKServeLimit int
}

// DefaultConfig returns timings modeled on Deluge over a mica2-class radio.
func DefaultConfig() Config {
	return Config{
		Trickle:            trickle.DefaultConfig(),
		RxBackoffMin:       20 * sim.Millisecond,
		RxBackoffMax:       150 * sim.Millisecond,
		RxRetryTimeout:     350 * sim.Millisecond,
		MaxSuppressions:    6,
		TxSpacing:          2 * sim.Millisecond,
		TxJitterMax:        25 * sim.Millisecond,
		TxAggregationDelay: 250 * sim.Millisecond,
		SigVerifyDelay:     1120 * sim.Millisecond,
		SNACKServeLimit:    0,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Trickle.Validate(); err != nil {
		return err
	}
	if c.RxBackoffMin < 0 || c.RxBackoffMax < c.RxBackoffMin {
		return fmt.Errorf("dissem: invalid RX backoff [%v, %v]", c.RxBackoffMin, c.RxBackoffMax)
	}
	if c.RxRetryTimeout <= 0 {
		return fmt.Errorf("dissem: RxRetryTimeout must be positive, got %v", c.RxRetryTimeout)
	}
	if c.MaxSuppressions < 0 || c.TxSpacing < 0 || c.TxJitterMax < 0 || c.TxAggregationDelay < 0 || c.SigVerifyDelay < 0 || c.SNACKServeLimit < 0 {
		return fmt.Errorf("dissem: negative knob")
	}
	return nil
}
