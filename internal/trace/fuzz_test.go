package trace

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzRead checks that the binary reader fails closed: any input either
// errors or parses to records that survive a Write→Read round trip.
func FuzzRead(f *testing.F) {
	for _, c := range garbageTraces {
		f.Add(c)
	}
	var buf bytes.Buffer
	if err := Write(&buf, "mcf", []Request{{Addr: 5, GapInstr: 7}, {Addr: 1 << 40, Write: true}}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		name, reqs, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, name, reqs); err != nil {
			t.Fatal(err)
		}
		name2, reqs2, err := Read(&out)
		if err != nil {
			t.Fatalf("re-read of written trace: %v", err)
		}
		if name2 != name || !slices.Equal(reqs2, reqs) {
			t.Fatalf("round trip changed the trace: %q %v -> %q %v", name, reqs, name2, reqs2)
		}
	})
}
