package workloads

import (
	"math/rand"

	"axmemo/internal/compiler"
	"axmemo/internal/cpu"
	"axmemo/internal/ir"
	"axmemo/internal/libm"
)

// LavaMD simulates short-range particle interactions within a grid of
// boxes (Rodinia).  The memoized kernel evaluates the pair potential from
// the displacement vector — (dx, dy, dz), 12 bytes, Table 2 — returning
// the packed (potential, force-scale) pair.  No truncation is applied
// (Table 2: 0 bits): redundancy comes from particles sitting on a
// lattice-like quantized position grid, so displacement vectors between
// pairs repeat exactly (see DESIGN.md for this input substitution).
func LavaMD() *Workload {
	return &Workload{
		Name:        "lavamd",
		Domain:      "Molecular Dynamics",
		Description: "Simulates particle interactions with charge",
		InputBytes:  "12",
		TruncBits:   []uint8{0},
		Build:       buildLavaMD,
		PaperScale:  6,
		Regions: func(trunc []uint8) []compiler.Region {
			tb := regionTrunc([]uint8{0}, trunc)
			t := tb[0]
			return []compiler.Region{{
				Func:        "pair",
				LUT:         0,
				InputParams: []int{0, 1, 2},
				ParamTrunc:  []uint8{t, t, t},
			}}
		},
		Setup:    setupLavaMD,
		MemBytes: lavaMemBytes,
	}
}

const (
	lavaBoxes   = 4 // boxes per side (2D grid of boxes)
	lavaPerBox  = 16
	lavaAlpha   = float32(0.5)
	lavaGridDiv = 4 // positions quantized to 1/4 within a box
)

func lavaCount(scale int) int {
	// Particles scale with the box occupancy.
	return lavaBoxes * lavaBoxes * lavaPerBox * scale
}

// lavaMemBytes sizes the image for a scale: per particle, its record, its
// start index, its output and the target indices of at most three
// neighbor boxes (setupLavaMD's layout).
func lavaMemBytes(scale int) int {
	return 1<<16 + lavaCount(scale)*(16+4+16+3*lavaPerBox*scale*4)
}

// pairGold mirrors the IR pair kernel.
func pairGold(dx, dy, dz float32) (v, fs float32) {
	r2 := dx*dx + dy*dy + dz*dz
	v = expf(-lavaAlpha * r2)
	fs = 2 * lavaAlpha * v
	return
}

type lavaParticle struct {
	x, y, z, q float32
}

// lavaGold computes per-particle potential and forces in float32.
func lavaGold(parts []lavaParticle, boxOf []int32, neighbors [][]int32, byBox [][]int32) []float64 {
	out := make([]float64, len(parts)*4)
	for i, pi := range parts {
		var e, fx, fy, fz float32
		for _, nb := range neighbors[boxOf[i]] {
			for _, j := range byBox[nb] {
				pj := parts[j]
				dx := pi.x - pj.x
				dy := pi.y - pj.y
				dz := pi.z - pj.z
				v, fs := pairGold(dx, dy, dz)
				e = e + v*pj.q
				fx = fx + fs*dx*pj.q
				fy = fy + fs*dy*pj.q
				fz = fz + fs*dz*pj.q
			}
		}
		out[4*i] = float64(e)
		out[4*i+1] = float64(fx)
		out[4*i+2] = float64(fy)
		out[4*i+3] = float64(fz)
	}
	return out
}

func setupLavaMD(img *cpu.Memory, scale int) *Instance {
	rng := rand.New(rand.NewSource(99))
	perBox := lavaPerBox * scale
	nBoxes := lavaBoxes * lavaBoxes
	n := nBoxes * perBox
	parts := make([]lavaParticle, n)
	boxOf := make([]int32, n)
	byBox := make([][]int32, nBoxes)
	for b := 0; b < nBoxes; b++ {
		bx := float32(b % lavaBoxes)
		by := float32(b / lavaBoxes)
		for k := 0; k < perBox; k++ {
			i := b*perBox + k
			parts[i] = lavaParticle{
				x: bx + float32(rng.Intn(lavaGridDiv))/lavaGridDiv,
				y: by + float32(rng.Intn(lavaGridDiv))/lavaGridDiv,
				z: float32(rng.Intn(lavaGridDiv)) / lavaGridDiv,
				q: float32(rng.Intn(3)) - 1, // charges in {-1, 0, 1}
			}
			boxOf[i] = int32(b)
			byBox[b] = append(byBox[b], int32(i))
		}
	}
	// Neighborhood: self + right + down (bounded stencil; see doc).
	neighbors := make([][]int32, nBoxes)
	for b := 0; b < nBoxes; b++ {
		neighbors[b] = []int32{int32(b)}
		if (b+1)%lavaBoxes != 0 {
			neighbors[b] = append(neighbors[b], int32(b+1))
		}
		if b+lavaBoxes < nBoxes {
			neighbors[b] = append(neighbors[b], int32(b+lavaBoxes))
		}
	}
	golden := lavaGold(parts, boxOf, neighbors, byBox)

	// Memory layout: particle array (x,y,z,q), a flattened neighbor
	// pair list (iStart, jStart, jCount) per (box, neighbor) is
	// unrolled on the host into a per-particle interaction list:
	// for simplicity the driver walks, per particle, a [start,count]
	// slice of a target-index array.
	pBase := img.Alloc(n * 16)
	for i, pt := range parts {
		img.SetF32(pBase+uint64(i*16), pt.x)
		img.SetF32(pBase+uint64(i*16)+4, pt.y)
		img.SetF32(pBase+uint64(i*16)+8, pt.z)
		img.SetF32(pBase+uint64(i*16)+12, pt.q)
	}
	// Target list per particle: all particles of all neighbor boxes.
	var targets []int32
	starts := make([]int32, n+1)
	for i := 0; i < n; i++ {
		starts[i] = int32(len(targets))
		for _, nb := range neighbors[boxOf[i]] {
			targets = append(targets, byBox[nb]...)
		}
	}
	starts[n] = int32(len(targets))
	tBase := img.Alloc(len(targets) * 4)
	for i, t := range targets {
		img.SetI32(tBase+uint64(i*4), t)
	}
	sBase := img.Alloc((n + 1) * 4)
	for i, s := range starts {
		img.SetI32(sBase+uint64(i*4), s)
	}
	oBase := img.Alloc(n * 16)
	return &Instance{
		Args:   []uint64{pBase, tBase, sBase, oBase, uint64(uint32(n))},
		N:      len(targets),
		Golden: golden,
		Outputs: func(img *cpu.Memory) []float64 {
			out := make([]float64, 4*n)
			for i := range out {
				out[i] = float64(img.F32(oBase + uint64(i*4)))
			}
			return out
		},
	}
}

func buildLavaMD() *ir.Program {
	p := ir.NewProgram("main")
	libm.BuildInto(p)

	// Kernel: pair(dx, dy, dz) -> (v, fs).
	k := p.NewFunc("pair", []ir.Type{ir.F32, ir.F32, ir.F32}, []ir.Type{ir.F32, ir.F32})
	kb := k.NewBlock("entry")
	bu := ir.At(k, kb)
	dx, dy, dz := k.Params[0], k.Params[1], k.Params[2]
	r2 := bu.Bin(ir.FAdd, ir.F32,
		bu.Bin(ir.FAdd, ir.F32, bu.Bin(ir.FMul, ir.F32, dx, dx), bu.Bin(ir.FMul, ir.F32, dy, dy)),
		bu.Bin(ir.FMul, ir.F32, dz, dz))
	alpha := bu.ConstF32(lavaAlpha)
	v := bu.Call(libm.FnExp, 1, bu.Un(ir.FNeg, ir.F32, bu.Bin(ir.FMul, ir.F32, alpha, r2)))[0]
	twoA := bu.ConstF32(2 * lavaAlpha)
	fs := bu.Bin(ir.FMul, ir.F32, twoA, v)
	bu.Ret(v, fs)

	// Driver: main(parts, targets, starts, out, n).
	f := p.NewFunc("main", []ir.Type{ir.I64, ir.I64, ir.I64, ir.I64, ir.I32}, nil)
	fb := f.NewBlock("entry")
	mbu := ir.At(f, fb)
	pB, tB, sB, oB, n := f.Params[0], f.Params[1], f.Params[2], f.Params[3], f.Params[4]
	zero := mbu.ConstI32(0)
	zf := mbu.ConstF32(0)

	pl := BeginLoop(mbu, f, zero, n)
	{
		pa := ElemAddr(mbu, pB, pl.I, 16)
		xi := mbu.Load(ir.F32, pa, 0)
		yi := mbu.Load(ir.F32, pa, 4)
		zi := mbu.Load(ir.F32, pa, 8)
		sa := ElemAddr(mbu, sB, pl.I, 4)
		start := mbu.Load(ir.I32, sa, 0)
		end := mbu.Load(ir.I32, sa, 4)
		e := mbu.Mov(ir.F32, zf)
		fx := mbu.Mov(ir.F32, zf)
		fy := mbu.Mov(ir.F32, zf)
		fz := mbu.Mov(ir.F32, zf)
		tl := BeginLoop(mbu, f, start, end)
		{
			ta := ElemAddr(mbu, tB, tl.I, 4)
			j := mbu.Load(ir.I32, ta, 0)
			pj := ElemAddr(mbu, pB, j, 16)
			xj := mbu.Load(ir.F32, pj, 0)
			yj := mbu.Load(ir.F32, pj, 4)
			zj := mbu.Load(ir.F32, pj, 8)
			qj := mbu.Load(ir.F32, pj, 12)
			dxv := mbu.Bin(ir.FSub, ir.F32, xi, xj)
			dyv := mbu.Bin(ir.FSub, ir.F32, yi, yj)
			dzv := mbu.Bin(ir.FSub, ir.F32, zi, zj)
			r := mbu.Call("pair", 2, dxv, dyv, dzv)
			vv, fsv := r[0], r[1]
			mbu.MovTo(ir.F32, e, mbu.Bin(ir.FAdd, ir.F32, e, mbu.Bin(ir.FMul, ir.F32, vv, qj)))
			mbu.MovTo(ir.F32, fx, mbu.Bin(ir.FAdd, ir.F32, fx, mbu.Bin(ir.FMul, ir.F32, mbu.Bin(ir.FMul, ir.F32, fsv, dxv), qj)))
			mbu.MovTo(ir.F32, fy, mbu.Bin(ir.FAdd, ir.F32, fy, mbu.Bin(ir.FMul, ir.F32, mbu.Bin(ir.FMul, ir.F32, fsv, dyv), qj)))
			mbu.MovTo(ir.F32, fz, mbu.Bin(ir.FAdd, ir.F32, fz, mbu.Bin(ir.FMul, ir.F32, mbu.Bin(ir.FMul, ir.F32, fsv, dzv), qj)))
		}
		tl.End(mbu)
		oa := ElemAddr(mbu, oB, pl.I, 16)
		mbu.Store(ir.F32, oa, 0, e)
		mbu.Store(ir.F32, oa, 4, fx)
		mbu.Store(ir.F32, oa, 8, fy)
		mbu.Store(ir.F32, oa, 12, fz)
	}
	pl.End(mbu)
	mbu.Ret()

	if err := p.Finalize(); err != nil {
		panic(err)
	}
	return p
}
