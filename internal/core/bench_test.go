package core

import (
	"context"
	"testing"

	"repro/internal/device"
	"repro/internal/workload"
)

// BenchmarkTrain times predictor training (a REPTree fit per target) on the
// Table 1 corpus: the thirteen benchmarks at full length on the default
// phone, corpus seed 42, as `ustasim -scenario examples/sweep/table1.json`
// self-trains. The corpus is collected once, outside the timer.
func BenchmarkTrain(b *testing.B) {
	bs := workload.Benchmarks(42)
	loads := make([]workload.Workload, len(bs))
	for i, w := range bs {
		loads[i] = w
	}
	corpus, err := CollectCorpusContext(context.Background(), device.DefaultConfig(), loads, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(corpus, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(corpus)), "records")
}
