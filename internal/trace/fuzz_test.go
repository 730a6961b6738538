package trace

import (
	"bytes"
	"testing"
)

// FuzzEvent fuzzes the JSONL event codec with the canonicalization
// property: any line DecodeLine accepts must re-encode to a line that
// decodes to the identical Event (the codec is idempotent after one
// round trip, even for lines a tracer would never produce — explicit zero
// fields, shuffled key order). Inputs the decoder rejects must error
// cleanly: trace files are operator artifacts fed to lrtrace, so a panic
// here crashes the CLI on a corrupt file.
//
// The checked-in corpus under testdata/fuzz/FuzzEvent seeds the shapes most
// likely to appear in the wild: every kind, explicit sentinels, unknown
// vocabulary, missing required keys, foreign schema versions and trailing
// garbage.
func FuzzEvent(f *testing.F) {
	f.Add([]byte(`{"v":1,"t":1500000000,"k":"tx","n":2,"pk":"data","u":3,"i":7}`))
	f.Add([]byte(`{"v":1,"t":2,"k":"drop","n":5,"pe":1,"pk":"adv","r":"fault"}`))
	f.Add([]byte(`{"v":1,"t":0,"k":"state","n":9,"from":"maintain","to":"rx","name":"rx"}`))
	f.Add([]byte(`{"v":1,"t":7,"k":"span-begin","n":1,"u":4,"sp":12,"name":"page-fetch"}`))
	f.Add([]byte(`{"v":1,"t":3,"k":"fault","name":"heal","x":0.5}`))
	f.Add([]byte(`{"v":1,"t":42,"k":"complete","n":3}`))
	f.Add([]byte(`{"v":1,"t":9,"k":"sig-accept","n":6,"pe":0,"pk":"sig"}`))
	f.Add([]byte(`{"k":"tx","t":0,"v":1,"x":0,"sp":0,"n":-1}`)) // shuffled keys, explicit zeros
	f.Add([]byte(`{"v":999,"t":0,"k":"tx"}`))
	f.Add([]byte(`{"v":1,"t":0,"k":"teleport"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeLine(data)
		if err != nil {
			return // rejected without panicking: fine
		}
		line := AppendJSON(nil, e)
		e2, err := DecodeLine(line)
		if err != nil {
			t.Fatalf("re-encoded line rejected: %v\nline: %s", err, line)
		}
		if e2 != e {
			t.Fatalf("round trip changed the event:\n in  %+v\n out %+v\nline %s", e, e2, line)
		}
		// Full canonicalization: a second encode is byte-identical.
		if line2 := AppendJSON(nil, e2); !bytes.Equal(line, line2) {
			t.Fatalf("encode not canonical:\n %s\n %s", line, line2)
		}
	})
}
