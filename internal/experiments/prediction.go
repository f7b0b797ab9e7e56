package experiments

import (
	"math"

	"flep/internal/kernels"
)

// Figure7 regenerates the kernel-duration prediction errors: each
// benchmark's trained model is evaluated on held-out inputs around the
// large and small operating points, each carrying the benchmark's
// input-dependent irregularity. The paper's mean and range are Claims
// rows; NN/MM/VA are the most predictable and SPMV the hardest.
func (s *Suite) Figure7() (*Table, error) {
	t := &Table{
		ID:      "fig7",
		Title:   "Kernel duration prediction errors",
		Columns: []string{"bench", "MAPE", "n-test"},
	}
	const testN = 40
	var overall float64
	errs := map[string]float64{}
	for _, b := range kernels.All() {
		sum := 0.0
		for i := 0; i < testN; i++ {
			// Held-out scales clustered near the evaluation inputs, with
			// fresh noise seeds disjoint from the training set.
			scale := 0.04 + 0.96*float64(i)/float64(testN-1)
			in := b.ScaledInput(scale, int64(5000+i))
			truth, err := s.Sys.MeasureSolo(b, in)
			if err != nil {
				return nil, err
			}
			// The online predictor sees only the nominal features (it
			// cannot know the input's irregularity).
			nominal := in
			nominal.TaskCost = b.Input(kernels.Large).TaskCost
			pred, err := s.Sys.Predict(b, nominal)
			if err != nil {
				return nil, err
			}
			sum += math.Abs(pred.Seconds()-truth.Seconds()) / truth.Seconds()
		}
		mape := sum / testN
		errs[b.Name] = mape
		overall += mape
		t.AddRow(b.Name, pct(mape), testN)
	}
	overall /= float64(len(kernels.All()))
	t.Note("average error %s (paper: %g%%, range %g%%-%g%%)", pct(overall),
		paper("fig7", "MAPE", "mean"), paper("fig7", "MAPE", "min"), paper("fig7", "MAPE", "max"))
	t.Note("SPMV hardest: %s; regular kernels NN %s / MM %s / VA %s",
		pct(errs["SPMV"]), pct(errs["NN"]), pct(errs["MM"]), pct(errs["VA"]))
	return t, nil
}
