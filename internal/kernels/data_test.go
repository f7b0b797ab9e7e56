package kernels

import (
	"fmt"
	"math/rand"
	"testing"

	cl "flep/internal/cudalite"
)

// DeviceData is a small, interpreter-runnable instance of a benchmark:
// argument values, launch geometry, and the output buffers whose contents
// define the kernel's observable result.
type DeviceData struct {
	Args    []cl.Value
	Grid    cl.Dim3
	Block   cl.Dim3
	Outputs []*cl.Buffer
}

// Clone deep-copies the data so an original and a transformed run can start
// from identical inputs.
func (d *DeviceData) Clone() *DeviceData {
	out := &DeviceData{Grid: d.Grid, Block: d.Block}
	seen := map[*cl.Buffer]*cl.Buffer{}
	cloneBuf := func(b *cl.Buffer) *cl.Buffer {
		if b == nil {
			return nil
		}
		if c, ok := seen[b]; ok {
			return c
		}
		c := &cl.Buffer{Name: b.Name, Kind: b.Kind, Volatile: b.Volatile}
		c.F = append([]float64(nil), b.F...)
		c.I = append([]int64(nil), b.I...)
		seen[b] = c
		return c
	}
	for _, a := range d.Args {
		if a.Kind == cl.KPtr && !a.P.IsNil() {
			out.Args = append(out.Args, cl.PtrValue(cloneBuf(a.P.Buf), a.P.Off))
		} else {
			out.Args = append(out.Args, a)
		}
	}
	for _, b := range d.Outputs {
		out.Outputs = append(out.Outputs, cloneBuf(b))
	}
	return out
}

// MakeData builds a deterministic problem instance of roughly n elements
// for interpreter-level validation. n should stay small (hundreds): the
// interpreter runs every simulated thread, one at a time.
func (b *Benchmark) MakeData(n int, seed int64) (*DeviceData, error) {
	if n <= 0 {
		return nil, fmt.Errorf("kernels: MakeData with n=%d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	switch b.Name {
	case "VA":
		return makeVA(n, rng), nil
	case "NN":
		return makeNN(n, rng), nil
	case "SPMV":
		return makeSPMV(n, rng), nil
	case "PL":
		return makePL(n, rng), nil
	case "MD":
		return makeMD(n, rng), nil
	case "MM":
		return makeMM(n, rng), nil
	case "PF":
		return makePF(n, rng), nil
	case "CFD":
		return makeCFD(n, rng), nil
	}
	return nil, fmt.Errorf("kernels: no data generator for %s", b.Name)
}

func floatBuf(name string, n int, rng *rand.Rand, gen func(*rand.Rand) float64) *cl.Buffer {
	b := cl.NewFloatBuffer(name, n)
	for i := range b.F {
		b.F[i] = gen(rng)
	}
	return b
}

func unit(rng *rand.Rand) float64 { return rng.Float64() }

func makeVA(n int, rng *rand.Rand) *DeviceData {
	a := floatBuf("a", n, rng, unit)
	bb := floatBuf("b", n, rng, unit)
	c := cl.NewFloatBuffer("c", n)
	return &DeviceData{
		Args:    []cl.Value{cl.PtrValue(a, 0), cl.PtrValue(bb, 0), cl.PtrValue(c, 0), cl.IntValue(int64(n))},
		Grid:    cl.D1((n + 63) / 64),
		Block:   cl.D1(64),
		Outputs: []*cl.Buffer{c},
	}
}

func makeNN(n int, rng *rand.Rand) *DeviceData {
	loc := floatBuf("locations", 2*n, rng, func(r *rand.Rand) float64 { return r.Float64()*180 - 90 })
	dist := cl.NewFloatBuffer("distances", n)
	return &DeviceData{
		Args: []cl.Value{
			cl.PtrValue(loc, 0), cl.PtrValue(dist, 0), cl.IntValue(int64(n)),
			cl.FloatValue(30.5), cl.FloatValue(-120.25),
		},
		Grid:    cl.D1((n + 63) / 64),
		Block:   cl.D1(64),
		Outputs: []*cl.Buffer{dist},
	}
}

func makeSPMV(rows int, rng *rand.Rand) *DeviceData {
	// CSR matrix with 1..8 non-zeros per row (irregular on purpose).
	rowPtr := cl.NewIntBuffer("rowPtr", rows+1)
	var cols []int64
	var vals []float64
	nnz := 0
	for r := 0; r < rows; r++ {
		rowPtr.I[r] = int64(nnz)
		k := 1 + rng.Intn(8)
		for j := 0; j < k; j++ {
			cols = append(cols, int64(rng.Intn(rows)))
			vals = append(vals, rng.Float64()*2-1)
			nnz++
		}
	}
	rowPtr.I[rows] = int64(nnz)
	colBuf := cl.NewIntBuffer("cols", nnz)
	copy(colBuf.I, cols)
	valBuf := cl.NewFloatBuffer("vals", nnz)
	copy(valBuf.F, vals)
	x := floatBuf("x", rows, rng, unit)
	y := cl.NewFloatBuffer("y", rows)
	return &DeviceData{
		Args: []cl.Value{
			cl.PtrValue(valBuf, 0), cl.PtrValue(colBuf, 0), cl.PtrValue(rowPtr, 0),
			cl.PtrValue(x, 0), cl.PtrValue(y, 0), cl.IntValue(int64(rows)),
		},
		Grid:    cl.D1((rows + 63) / 64),
		Block:   cl.D1(64),
		Outputs: []*cl.Buffer{y},
	}
}

func makePL(n int, rng *rand.Rand) *DeviceData {
	ax := floatBuf("arrayX", n, rng, func(r *rand.Rand) float64 { return r.NormFloat64() })
	ay := floatBuf("arrayY", n, rng, func(r *rand.Rand) float64 { return r.NormFloat64() })
	lk := floatBuf("likelihood", n, rng, unit)
	w := floatBuf("weights", n, rng, func(r *rand.Rand) float64 { return r.Float64() + 0.5 })
	return &DeviceData{
		Args: []cl.Value{
			cl.PtrValue(ax, 0), cl.PtrValue(ay, 0), cl.PtrValue(lk, 0),
			cl.PtrValue(w, 0), cl.IntValue(int64(n)),
		},
		Grid:    cl.D1((n + 63) / 64),
		Block:   cl.D1(64),
		Outputs: []*cl.Buffer{w},
	}
}

func makeMD(n int, rng *rand.Rand) *DeviceData {
	const maxNeighbors = 8
	px := floatBuf("posX", n, rng, func(r *rand.Rand) float64 { return r.Float64() * 10 })
	py := floatBuf("posY", n, rng, func(r *rand.Rand) float64 { return r.Float64() * 10 })
	pz := floatBuf("posZ", n, rng, func(r *rand.Rand) float64 { return r.Float64() * 10 })
	fx := cl.NewFloatBuffer("forceX", n)
	fy := cl.NewFloatBuffer("forceY", n)
	fz := cl.NewFloatBuffer("forceZ", n)
	nb := cl.NewIntBuffer("neighbors", n*maxNeighbors)
	for i := range nb.I {
		nb.I[i] = int64(rng.Intn(n))
	}
	return &DeviceData{
		Args: []cl.Value{
			cl.PtrValue(px, 0), cl.PtrValue(py, 0), cl.PtrValue(pz, 0),
			cl.PtrValue(fx, 0), cl.PtrValue(fy, 0), cl.PtrValue(fz, 0),
			cl.PtrValue(nb, 0), cl.IntValue(maxNeighbors), cl.IntValue(int64(n)),
			cl.FloatValue(16.0), cl.FloatValue(1.5), cl.FloatValue(2.0),
		},
		Grid:    cl.D1((n + 63) / 64),
		Block:   cl.D1(64),
		Outputs: []*cl.Buffer{fx, fy, fz},
	}
}

func makeMM(n int, rng *rand.Rand) *DeviceData {
	// Square n×n with a non-multiple-of-16 size to exercise the guards.
	a := floatBuf("a", n*n, rng, unit)
	bb := floatBuf("b", n*n, rng, unit)
	c := cl.NewFloatBuffer("c", n*n)
	return &DeviceData{
		Args: []cl.Value{
			cl.PtrValue(a, 0), cl.PtrValue(bb, 0), cl.PtrValue(c, 0),
			cl.IntValue(int64(n)), cl.IntValue(int64(n)), cl.IntValue(int64(n)),
		},
		Grid:    cl.D2((n+15)/16, (n+15)/16),
		Block:   cl.D2(16, 16),
		Outputs: []*cl.Buffer{c},
	}
}

func makePF(colsN int, rng *rand.Rand) *DeviceData {
	const rows = 8
	const pyramidHeight = 4
	wall := cl.NewIntBuffer("wall", rows*colsN)
	for i := range wall.I {
		wall.I[i] = int64(rng.Intn(10))
	}
	src := cl.NewIntBuffer("src", colsN)
	for i := range src.I {
		src.I[i] = int64(rng.Intn(10))
	}
	dst := cl.NewIntBuffer("dst", colsN)
	return &DeviceData{
		Args: []cl.Value{
			cl.PtrValue(wall, 0), cl.PtrValue(src, 0), cl.PtrValue(dst, 0),
			cl.IntValue(int64(colsN)), cl.IntValue(rows),
			cl.IntValue(0), cl.IntValue(pyramidHeight),
		},
		Grid:    cl.D1((colsN + 255) / 256),
		Block:   cl.D1(256),
		Outputs: []*cl.Buffer{dst},
	}
}

func makeCFD(n int, rng *rand.Rand) *DeviceData {
	density := floatBuf("density", n, rng, func(r *rand.Rand) float64 { return r.Float64() + 1 })
	momX := floatBuf("momX", n, rng, func(r *rand.Rand) float64 { return r.NormFloat64() })
	momY := floatBuf("momY", n, rng, func(r *rand.Rand) float64 { return r.NormFloat64() })
	momZ := floatBuf("momZ", n, rng, func(r *rand.Rand) float64 { return r.NormFloat64() })
	energy := floatBuf("energy", n, rng, func(r *rand.Rand) float64 { return r.Float64()*5 + 10 })
	nb := cl.NewIntBuffer("neighbors", n*4)
	for i := range nb.I {
		if rng.Intn(8) == 0 {
			nb.I[i] = -1 // boundary face
		} else {
			nb.I[i] = int64(rng.Intn(n))
		}
	}
	nx := floatBuf("normalsX", n*4, rng, func(r *rand.Rand) float64 { return r.NormFloat64() })
	ny := floatBuf("normalsY", n*4, rng, func(r *rand.Rand) float64 { return r.NormFloat64() })
	nz := floatBuf("normalsZ", n*4, rng, func(r *rand.Rand) float64 { return r.NormFloat64() })
	fd := cl.NewFloatBuffer("fluxDensity", n)
	fmx := cl.NewFloatBuffer("fluxMomX", n)
	fmy := cl.NewFloatBuffer("fluxMomY", n)
	fmz := cl.NewFloatBuffer("fluxMomZ", n)
	fe := cl.NewFloatBuffer("fluxEnergy", n)
	return &DeviceData{
		Args: []cl.Value{
			cl.PtrValue(density, 0), cl.PtrValue(momX, 0), cl.PtrValue(momY, 0),
			cl.PtrValue(momZ, 0), cl.PtrValue(energy, 0), cl.PtrValue(nb, 0),
			cl.PtrValue(nx, 0), cl.PtrValue(ny, 0), cl.PtrValue(nz, 0),
			cl.PtrValue(fd, 0), cl.PtrValue(fmx, 0), cl.PtrValue(fmy, 0),
			cl.PtrValue(fmz, 0), cl.PtrValue(fe, 0),
			cl.IntValue(int64(n)), cl.FloatValue(1.4), cl.FloatValue(0.2),
		},
		Grid:    cl.D1((n + 63) / 64),
		Block:   cl.D1(64),
		Outputs: []*cl.Buffer{fd, fmx, fmy, fmz, fe},
	}
}

// BenchmarkInterpreterMM measures the SIMT interpreter on a 40x40 tiled
// matrix multiply (16x16 CTAs with shared-memory tiles and barriers).
func BenchmarkInterpreterMM(b *testing.B) {
	mm, err := ByName("MM")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := mm.Parse()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		data, err := mm.MakeData(40, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		m := cl.NewMachine(prog)
		if err := m.Launch(mm.KernelName, cl.LaunchConfig{Grid: data.Grid, Block: data.Block, Args: data.Args}); err != nil {
			b.Fatal(err)
		}
	}
}
