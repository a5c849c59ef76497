package genome

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"testing"
)

// TestDefaultCodebookConcurrentFirstCallers: the lazily built codebook
// is one shared value, whichever goroutines race to build it.
func TestDefaultCodebookConcurrentFirstCallers(t *testing.T) {
	const n = 8
	got := make([]*Codebook, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = DefaultCodebook()
		}(i)
	}
	close(start)
	wg.Wait()
	for i, cb := range got {
		if cb == nil || cb != got[0] {
			t.Fatalf("caller %d got codebook %p, caller 0 got %p", i, cb, got[0])
		}
	}
}

// TestCentDiscStateGolden pins the default codebook's content and the
// CENTDISC state codec's bytes, so building the codebook lazily (or any
// later change to its construction) cannot silently move checkpoints,
// cluster state or calls.
func TestCentDiscStateGolden(t *testing.T) {
	cb := DefaultCodebook()
	h := sha256.New()
	for _, c := range cb.centroids {
		for _, x := range c {
			_ = binary.Write(h, binary.LittleEndian, math.Float64bits(x))
		}
	}
	for _, row := range cb.mergeTable {
		h.Write(row[:])
	}
	const wantCodebook = "457782f497ea20b4d91bf9695ebb41a128be49258f29f424cbafb8e08133ab64"
	if got := hex.EncodeToString(h.Sum(nil)); got != wantCodebook {
		t.Errorf("codebook digest %s, want %s", got, wantCodebook)
	}

	a, err := New(CentDisc, 64)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < 60; pos += 3 {
		f := float64(pos) / 60
		a.AddRange(pos, []Vec{{f, 1 - f, 0, 0, 0}, {0, f, 0, 1 - f, 0}, {0.2, 0.2, 0.2, 0.2, 0.2}}, 0.5+f)
	}
	data, err := a.(Stateful).State()
	if err != nil {
		t.Fatal(err)
	}
	const wantState = "e8aebc5a57d6d2ab0f4b83fe0da8563d9262158f42a9be960e00aadcdf1d9de3"
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != wantState {
		t.Errorf("CENTDISC state digest %s, want %s", hex.EncodeToString(sum[:]), wantState)
	}
	b, err := CloneEmpty(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.(Stateful).LoadStateBytes(data); err != nil {
		t.Fatal(err)
	}
	again, err := b.(Stateful).State()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Error("CENTDISC state does not round-trip byte for byte")
	}
}
