package stash

import (
	"slices"
	"testing"

	"iroram/internal/block"
)

// The operations FuzzAddrTable decodes, one per input byte pair.
const (
	opPut = iota
	opGet
	opDelete
	numOps
)

// maxFuzzOps caps the operations one input runs: enough to double a
// 16-slot table several times over, short enough that the fuzzer's
// quadratic minimization of a new input stays quick.
const maxFuzzOps = 128

// FuzzAddrTable drives the open-addressed table and a map model through
// one decoded operation sequence. data[0] is the capacity hint; each later
// byte pair is an operation (first byte mod numOps) on a key (second
// byte), so 256 keys collide hard in a table that starts at 16 slots. After
// every operation its result, Len and the slot count must agree with the
// model: the table may grow only on an insert of a key the model lacks.
func FuzzAddrTable(f *testing.F) {
	// Bring a 16-slot table to its 13-key bound, then update a present
	// key: an update must not double the table.
	atBound := []byte{0}
	for k := byte(0); k < 13; k++ {
		atBound = append(atBound, opPut, k)
	}
	f.Add(slices.Concat(atBound, []byte{opPut, 0}))
	// An insert of a new key at the bound doubles the table, and the key
	// must survive the rehash.
	f.Add(slices.Concat(atBound, []byte{opPut, 13, opGet, 13}))
	f.Add([]byte{3, opPut, 1, opGet, 1, opDelete, 1, opGet, 1, opPut, 2, opGet, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 1+2*maxFuzzOps {
			data = data[:1+2*maxFuzzOps]
		}
		tab := NewAddrTable(int(data[0] % 64))
		model := map[block.ID]uint32{}
		for i := 1; i+1 < len(data); i += 2 {
			op, id, v := data[i]%numOps, block.ID(data[i+1]), uint32(i)
			want, had := model[id]
			slots := len(tab.keys)
			switch op {
			case opPut:
				tab.Put(id, v)
				model[id] = v
			case opGet:
				if got, ok := tab.Get(id); ok != had || got != want {
					t.Fatalf("op %d: Get(%v) = %d,%v want %d,%v", i, id, got, ok, want, had)
				}
			case opDelete:
				if got := tab.Delete(id); got != had {
					t.Fatalf("op %d: Delete(%v) = %v want %v", i, id, got, had)
				}
				delete(model, id)
			}
			if tab.Len() != len(model) {
				t.Fatalf("op %d: Len %d want %d", i, tab.Len(), len(model))
			}
			inserted := op == opPut && !had
			if got := len(tab.keys); got != slots && !inserted {
				t.Fatalf("op %d (%d on present key %v): slot count %d -> %d without a new key",
					i, op, id, slots, got)
			}
		}
		for k, want := range model {
			if got, ok := tab.Get(k); !ok || got != want {
				t.Fatalf("final Get(%v) = %d,%v want %d,true", k, got, ok, want)
			}
		}
	})
}
