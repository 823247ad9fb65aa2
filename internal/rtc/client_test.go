package rtc

import (
	"testing"

	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/sim"
)

func TestSeqWindowRejectsDuplicateInWindow(t *testing.T) {
	var w seqWindow
	for s := uint64(1); s <= 100; s++ {
		if !w.mark(s) {
			t.Fatalf("first mark(%d) reported a duplicate", s)
		}
	}
	for _, s := range []uint64{1, 50, 100} {
		if w.mark(s) {
			t.Fatalf("duplicate %d inside the window accepted", s)
		}
	}
}

func TestSeqWindowReorderAcceptedOnce(t *testing.T) {
	var w seqWindow
	for _, s := range []uint64{1, 2, 5, 6} {
		w.mark(s)
	}
	// 3 and 4 arrive late, within the window: accepted exactly once.
	for _, s := range []uint64{4, 3} {
		if !w.mark(s) {
			t.Fatalf("reordered %d rejected", s)
		}
		if w.mark(s) {
			t.Fatalf("reordered %d accepted twice", s)
		}
	}
}

func TestSeqWindowOlderThanWindowIsUnseen(t *testing.T) {
	var w seqWindow
	w.mark(10)
	w.mark(10 + seqWindowSize)
	// 10 has slid out of the window; like any out-of-window sequence
	// it counts as unseen, each time it arrives.
	for i := 0; i < 2; i++ {
		if !w.mark(10) {
			t.Fatalf("sequence older than the window reported as seen (try %d)", i)
		}
	}
	if w.mark(10 + seqWindowSize) {
		t.Fatal("window head forgotten after an out-of-window mark")
	}
}

func TestSeqWindowAdvanceClearsStaleBits(t *testing.T) {
	for _, jump := range []uint64{seqWindowSize - 50, seqWindowSize, 3 * seqWindowSize} {
		var w seqWindow
		for s := uint64(1); s <= 100; s++ {
			w.mark(s)
		}
		head := 100 + jump
		if !w.mark(head) {
			t.Fatalf("jump %d: new head %d reported as seen", jump, head)
		}
		// In-window sequences marked before the jump are still seen;
		// every other in-window sequence below the head was never
		// marked, and some share bit positions with 1..100, so all of
		// them must be unseen.
		lo := uint64(1)
		if head >= seqWindowSize {
			lo = head - seqWindowSize + 1
		}
		for s := lo; s < head; s++ {
			if got, want := w.mark(s), s > 100; got != want {
				t.Fatalf("jump %d: mark(%d) = %v, want %v", jump, s, got, want)
			}
		}
	}
}

func TestSeqWindowZeroValue(t *testing.T) {
	var w seqWindow
	if !w.mark(0) || w.mark(0) {
		t.Fatal("zero-value window mishandles sequence 0")
	}
	var w2 seqWindow
	if !w2.mark(1) || w2.mark(1) {
		t.Fatal("zero-value window mishandles sequence 1")
	}
}

// TestDCIReservationNeverRegrows checks that a session's DCI series
// stays within its up-front reservation on every preset cell: the
// reservation is both large enough and not regrown.
func TestDCIReservationNeverRegrows(t *testing.T) {
	const dur = 10 * sim.Second
	for _, cell := range ran.Presets() {
		s, err := NewSession(DefaultSessionConfig(cell, 1))
		if err != nil {
			t.Fatal(err)
		}
		set := s.Run(dur)
		want := dciReservation(cell, int(dur/cell.Numerology.SlotDuration()))
		if cap(set.DCI) != want {
			t.Errorf("%s: cap(DCI) = %d after %d records, want the reservation %d",
				cell.Name, cap(set.DCI), len(set.DCI), want)
		}
		t.Logf("%s: %d DCI records, reserved %d", cell.Name, len(set.DCI), want)
	}
}
