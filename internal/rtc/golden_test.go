package rtc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// goldenTraceSHA256 pins the binary trace of one 5 s session per cell
// preset at seed 42. It enforces ARCHITECTURE.md's determinism
// contract across commits: a simulator change that shifts these bytes
// for the same seed is a regression, not a refactor. Regenerate only
// for an intended change to the simulated physics, and say so.
var goldenTraceSHA256 = map[string]string{
	"T-Mobile 100MHz TDD": "008fe4ece8c54f95510a94bca0bc320ac41522eef153fed01eedecf70fdac686",
	"T-Mobile 15MHz FDD":  "98f8079ec82cef5d22bfa9618e6f0f5ac4ff3e804e861d578b913be65ce8febd",
	"Amarisoft 20MHz TDD": "26831a9ffac2e40c9209a550eb0bb1b626d72ea120f5d6db77075c4ba5131f7d",
	"Mosolabs 20MHz TDD":  "1069a7fd669d620a6d5943467fe91b2f6bfd51c5f22f8a446c86ae5d76f82728",
}

func TestSimulatorGoldenTraces(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// math.Exp and math.Log are assembly on amd64 and pure Go
		// elsewhere; their last-ulp differences change the bytes.
		t.Skipf("golden hashes are pinned for amd64; GOARCH=%s may differ in the last ulp of math.Exp/math.Log", runtime.GOARCH)
	}
	presets := ran.Presets()
	if len(presets) != len(goldenTraceSHA256) {
		t.Fatalf("%d presets, %d golden hashes", len(presets), len(goldenTraceSHA256))
	}
	for _, cell := range presets {
		want, ok := goldenTraceSHA256[cell.Name]
		if !ok {
			t.Fatalf("no golden hash for preset %q", cell.Name)
		}
		s, err := NewSession(DefaultSessionConfig(cell, 42))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteBinary(&buf, s.Run(5*sim.Second)); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: trace sha256 = %s, want %s (%d bytes)", cell.Name, got, want, buf.Len())
		}
	}
}
