// Package perfmodel implements FLEP's lightweight kernel-duration models
// (§4.2): per-kernel linear regression with an L2-norm penalty over four
// features — grid size, CTA size, input size, and shared memory size — plus
// the preemption-overhead estimator (mean of profiled runs).
package perfmodel

import (
	"fmt"
	"math"
	"time"
)

// Features are the model inputs, "easily obtained given a kernel
// invocation".
type Features struct {
	GridSize    float64 // number of CTAs
	CTASize     float64 // threads per CTA
	InputBytes  float64 // input data size
	SharedBytes float64 // shared memory per CTA
}

func (f Features) vector() []float64 {
	return []float64{f.GridSize, f.CTASize, f.InputBytes, f.SharedBytes}
}

// Sample pairs features with an observed duration.
type Sample struct {
	F        Features
	Duration time.Duration
}

// Model is a trained ridge regression predicting kernel duration.
type Model struct {
	weights   []float64 // per standardized feature
	intercept float64
	mean, std []float64 // feature standardization
}

// DefaultLambda is the L2 penalty used when training FLEP models.
const DefaultLambda = 1e-3

// Train fits a ridge regression on the samples. At least two samples are
// required; lambda ≤ 0 uses DefaultLambda. Features are standardized
// internally, with constant features dropped (zero weight).
func Train(samples []Sample, lambda float64) (*Model, error) {
	if len(samples) < 2 {
		return nil, fmt.Errorf("perfmodel: need at least 2 samples, got %d", len(samples))
	}
	if lambda <= 0 {
		lambda = DefaultLambda
	}
	n := len(samples)
	d := 4
	// Standardize features for conditioning.
	mean := make([]float64, d)
	std := make([]float64, d)
	for _, s := range samples {
		v := s.F.vector()
		for j := 0; j < d; j++ {
			mean[j] += v[j]
		}
	}
	for j := 0; j < d; j++ {
		mean[j] /= float64(n)
	}
	for _, s := range samples {
		v := s.F.vector()
		for j := 0; j < d; j++ {
			diff := v[j] - mean[j]
			std[j] += diff * diff
		}
	}
	for j := 0; j < d; j++ {
		std[j] = math.Sqrt(std[j] / float64(n))
		if std[j] < 1e-12 {
			std[j] = 0 // constant feature: excluded
		}
	}

	// Normal equations on standardized features with unpenalized
	// intercept handled by centering the target.
	yMean := 0.0
	for _, s := range samples {
		yMean += s.Duration.Seconds()
	}
	yMean /= float64(n)

	xtx := make([][]float64, d)
	for j := range xtx {
		xtx[j] = make([]float64, d)
	}
	xty := make([]float64, d)
	row := make([]float64, d)
	for _, s := range samples {
		v := s.F.vector()
		for j := 0; j < d; j++ {
			if std[j] == 0 {
				row[j] = 0
			} else {
				row[j] = (v[j] - mean[j]) / std[j]
			}
		}
		yc := s.Duration.Seconds() - yMean
		for j := 0; j < d; j++ {
			for k := 0; k < d; k++ {
				xtx[j][k] += row[j] * row[k]
			}
			xty[j] += row[j] * yc
		}
	}
	for j := 0; j < d; j++ {
		xtx[j][j] += lambda * float64(n)
	}
	w, err := solve(xtx, xty)
	if err != nil {
		return nil, err
	}
	return &Model{weights: w, intercept: yMean, mean: mean, std: std}, nil
}

// Predict returns the modeled duration, floored at zero.
func (m *Model) Predict(f Features) time.Duration {
	v := f.vector()
	y := m.intercept
	for j, w := range m.weights {
		if m.std[j] == 0 {
			continue
		}
		y += w * (v[j] - m.mean[j]) / m.std[j]
	}
	if y < 0 {
		y = 0
	}
	return time.Duration(y * float64(time.Second))
}

// solve performs Gaussian elimination with partial pivoting on a (small)
// dense system Ax=b, destroying its inputs.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		if math.Abs(a[p][col]) < 1e-15 {
			return nil, fmt.Errorf("perfmodel: singular system at column %d", col)
		}
		a[col], a[p] = a[p], a[col]
		b[col], b[p] = b[p], b[col]
		// Eliminate.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * x[c]
		}
		x[r] = sum / a[r][r]
	}
	return x, nil
}
