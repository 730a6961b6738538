package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"lrseluge/internal/crypt/hashx"
	"lrseluge/internal/crypt/merkle"
	"lrseluge/internal/crypt/puzzle"
	"lrseluge/internal/crypt/sign"
	"lrseluge/internal/erasure/gf256"
	"lrseluge/internal/erasure/rs"
	"lrseluge/internal/image"
	"lrseluge/internal/sim"
)

// batches is how many timed batches each primitive cost is the median of.
const batches = 7

// sinkImage keeps the compiler from dropping the timed hash calls.
var sinkImage hashx.Image

// primitiveCosts times the primitives a dissemination spends its time in, on
// the default packet geometry (72-byte payloads, pages of k = 32 of n = 48
// packets): GF(2^8) multiply-accumulate, RS encode and decode of one page,
// one hash image, a Merkle proof check, an ECDSA verification, a puzzle
// check and one engine event. Every primitive's output is checked, so a
// fast but wrong primitive fails the run.
func primitiveCosts() (map[string]float64, error) {
	p := image.DefaultParams()
	rng := rand.New(rand.NewSource(1))
	data := make([][]byte, p.K)
	for i := range data {
		data[i] = make([]byte, p.PacketPayload)
		rng.Read(data[i])
	}
	msg := data[0]

	code, err := rs.New(p.K, p.N)
	if err != nil {
		return nil, err
	}
	encoded := make([][]byte, p.N)
	for i := range encoded {
		encoded[i] = make([]byte, p.PacketPayload)
	}
	if err := code.EncodeInto(data, encoded); err != nil {
		return nil, err
	}
	// The first n-k data packets are lost, so decoding takes the matrix
	// path rather than the systematic copy.
	lossy := append([][]byte(nil), encoded...)
	for i := 0; i < p.N-p.K; i++ {
		lossy[i] = nil
	}
	decoded := make([][]byte, p.K)
	for i := range decoded {
		decoded[i] = make([]byte, p.PacketPayload)
	}

	kp, err := sign.GenerateDeterministic(1)
	if err != nil {
		return nil, err
	}
	sig, err := kp.Sign(msg)
	if err != nil {
		return nil, err
	}
	pub := kp.Public()

	chain, err := puzzle.NewChain([]byte("lrbench"), 1)
	if err != nil {
		return nil, err
	}
	key, err := chain.Key(1)
	if err != nil {
		return nil, err
	}
	pp := puzzle.Params{Strength: 8}
	solution, err := puzzle.Solve(pp, msg, key)
	if err != nil {
		return nil, err
	}

	tree, err := merkle.Build(data[:16])
	if err != nil {
		return nil, err
	}
	proof, err := tree.Proof(5)
	if err != nil {
		return nil, err
	}
	root := tree.Root()

	acc := make([]byte, p.PacketPayload)
	ok := true
	costs := make(map[string]float64)
	costs["gf256_mulslice_ns"] = perCall(20000, func() { gf256.MulSlice(0x8e, msg, acc) })
	costs["rs_encode_us"] = perCall(200, func() { ok = code.EncodeInto(data, encoded) == nil && ok }) / 1e3
	costs["rs_decode_us"] = perCall(100, func() { ok = code.DecodeInto(lossy, decoded) == nil && ok }) / 1e3
	costs["hash_image_ns"] = perCall(20000, func() { sinkImage = hashx.Sum(msg) })
	costs["merkle_verify_ns"] = perCall(5000, func() { ok = merkle.Verify(root, data[5], 5, proof) && ok })
	costs["ecdsa_verify_us"] = perCall(40, func() { ok = pub.Verify(msg, sig) && ok }) / 1e3
	costs["puzzle_verify_ns"] = perCall(20000, func() { ok = puzzle.Verify(pp, msg, key, solution) && ok })
	costs["queue_event_ns"] = queueEventCost()

	if !ok {
		return nil, errors.New("primitives: a timed call failed")
	}
	for i := range data {
		if !bytes.Equal(decoded[i], data[i]) {
			return nil, fmt.Errorf("primitives: RS decode: block %d differs", i)
		}
	}
	return costs, nil
}

// perCall returns the median over batches of the mean wall time of one call
// of fn, in nanoseconds, with n calls per batch.
func perCall(n int, fn func()) float64 {
	fn()
	samples := make([]float64, batches)
	for b := range samples {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		samples[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(samples)
}

// queueEventCost is the engine's cost of one event (schedule, calendar-queue
// push and pop, dispatch) with 10,000 timers pending, the order of a
// 10k-node run. Each event reschedules itself 1 ms to 1 s ahead.
func queueEventCost() float64 {
	const pending = 10000
	eng := sim.NewWithQueue(sim.CalendarQueue)
	x := uint64(88172645463325252)
	var fire func()
	fire = func() {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		eng.Schedule(sim.Millisecond+sim.Time(x%uint64(sim.Second)), fire)
	}
	for i := 0; i < pending; i++ {
		fire()
	}
	// About 20,000 events per simulated second: 100,000 per slice.
	const slice = 5 * sim.Second
	eng.Run(eng.Now() + slice)
	samples := make([]float64, batches)
	for b := range samples {
		before := eng.Events()
		t0 := time.Now()
		eng.Run(eng.Now() + slice)
		samples[b] = float64(time.Since(t0).Nanoseconds()) / float64(eng.Events()-before)
	}
	return median(samples)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
