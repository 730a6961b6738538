package puzzle

import (
	"math/rand"
	"testing"
)

var solveSink uint64

// BenchmarkSolve is the puzzle search at the simulations' default strength
// (8) over 84-byte messages, the size of a Sig packet's PuzzleMessage. It
// cycles through 64 seeded messages so ns/op averages over the search
// lengths a run's forged packets see.
func BenchmarkSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	msgs := make([][]byte, 64)
	for i := range msgs {
		msgs[i] = make([]byte, 84)
		rng.Read(msgs[i])
	}
	var key Key
	rng.Read(key[:])
	params := Params{Strength: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Solve(params, msgs[i%len(msgs)], key)
		if err != nil {
			b.Fatal(err)
		}
		solveSink = s
	}
}
