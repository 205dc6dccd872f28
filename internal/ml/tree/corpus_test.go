package tree_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ml/tree"
	"repro/internal/workload"
)

// TestCorpusMatchesStableReference pins the grower contract on simulator
// data, whose correlated temperature columns and quantized frequency
// column produce the near-tied splits that tie order decides.
func TestCorpusMatchesStableReference(t *testing.T) {
	loads := []workload.Workload{
		workload.Truncated{W: workload.Skype(1), Dur: 900},
		workload.Truncated{W: workload.AnTuTuCPU(2), Dur: 600},
		workload.StaircaseRamp(3, 0.05, 0.95, 8, 45),
	}
	corpus, err := core.CollectCorpusContext(context.Background(), device.DefaultConfig(), loads, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []core.Target{core.SkinTarget, core.ScreenTarget} {
		t.Run(target.String(), func(t *testing.T) {
			tree.AssertMatchesReference(t, *tree.New(1), core.DatasetFromRecords(corpus, target))
		})
	}
}
