package hashx_test

import (
	"testing"

	"lrseluge/internal/crypt/hashx"
	"lrseluge/internal/packet"
)

// FuzzSumBody runs arbitrary call sequences against one Memo: each op is
// three bytes (kind, a, b) that hash the current body, flip a byte of the
// payload buffer in place, move the body to another unit or index, or
// resize the payload. Every image must equal Sum over the packet's
// AuthBody, whatever the memo remembers.
func FuzzSumBody(f *testing.F) {
	f.Add([]byte("payload bytes of one data packet"), []byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte("payload"), []byte{0, 0, 0, 1, 3, 0x40, 0, 0, 0})                // mutate in place
	f.Add([]byte("payload"), []byte{0, 0, 0, 2, 9, 0, 0, 0, 0, 3, 1, 0, 0, 0, 0}) // other unit, index
	f.Add([]byte{}, []byte{0, 0, 0, 4, 0, 0, 0, 0, 0, 4, 5, 7, 0, 0, 0})          // empty, then grown
	f.Fuzz(func(t *testing.T, payload, ops []byte) {
		var m hashx.Memo
		d := &packet.Data{Unit: 2, Payload: append([]byte(nil), payload...)}
		for ; len(ops) >= 3; ops = ops[3:] {
			a, b := ops[1], ops[2]
			switch ops[0] % 5 {
			case 1:
				if len(d.Payload) > 0 {
					d.Payload[int(a)%len(d.Payload)] ^= b | 1
				}
			case 2:
				d.Unit = packet.Unit(a)
			case 3:
				d.Index = a
			case 4:
				n := int(a) % 200
				if n <= cap(d.Payload) {
					d.Payload = d.Payload[:n]
				} else {
					d.Payload = append(d.Payload, make([]byte, n-len(d.Payload))...)
				}
				for i := range d.Payload {
					if i%7 == int(b)%7 {
						d.Payload[i] = b
					}
				}
			}
			got := m.SumBody(uint8(d.Unit), d.Index, d.Payload)
			if want := hashx.Sum(d.AuthBody()); got != want {
				t.Fatalf("unit %d index %d payload %x: SumBody %s, Sum(AuthBody) %s", d.Unit, d.Index, d.Payload, got, want)
			}
		}
	})
}

// TestSumBodyReusesOnlyEqualBodies checks the memo against the two ways an
// attacker can present a remembered payload: a buffer rewritten in place
// and the same bytes under another position.
func TestSumBodyReusesOnlyEqualBodies(t *testing.T) {
	var m hashx.Memo
	buf := []byte("genuine page packet")
	valid := m.SumBody(3, 4, buf)
	if valid != hashx.Sum([]byte{3, 4}, buf) {
		t.Fatal("SumBody is not Sum over unit, index, payload")
	}
	if m.SumBody(3, 4, buf) != valid {
		t.Fatal("an equal body changed its image")
	}
	buf[0] ^= 1
	if m.SumBody(3, 4, buf) == valid {
		t.Fatal("a payload mutated in place kept the remembered image")
	}
	buf[0] ^= 1
	if m.SumBody(3, 5, buf) == valid || m.SumBody(2, 4, buf) == valid {
		t.Fatal("the same payload under another position kept the remembered image")
	}
}

func TestSumBodyAllocatesNothing(t *testing.T) {
	var m hashx.Memo
	a, b := make([]byte, 72), make([]byte, 72)
	b[0] = 1
	m.SumBody(2, 0, a)
	if n := testing.AllocsPerRun(100, func() {
		m.SumBody(2, 0, a)
		m.SumBody(2, 0, b)
	}); n != 0 {
		t.Fatalf("SumBody allocates %.1f times per call pair", n)
	}
}
