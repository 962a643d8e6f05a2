package main

import (
	"runtime"
	"time"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/quant"
	"autohet/internal/sim"
)

// replayTimes splits one replayed call by the public dnn and quant calls
// the engine makes, summed over layers.
type replayTimes struct {
	im2col, actQuantize, kernel, scatter, pool, relu time.Duration
	// macs and weightBytes count the kernel's multiply-accumulates and the
	// int8 weight bytes it streams (once per kernel call).
	macs, weightBytes int64
}

// record stores the split per inference of an n-input call.
func (rt replayTimes) record(l map[string]float64, n float64) {
	l["dnn.im2col_s"] = rt.im2col.Seconds() / n
	l["quant.act_quantize_s"] = rt.actQuantize.Seconds() / n
	l["quant.kernel_s"] = rt.kernel.Seconds() / n
	l["dnn.scatter_s"] = rt.scatter.Seconds() / n
	l["dnn.pool_s"] = rt.pool.Seconds() / n
	l["dnn.relu_s"] = rt.relu.Seconds() / n
	l["quant.kernel_macs"] = float64(rt.macs) / n
	l["quant.kernel_weight_bytes"] = float64(rt.weightBytes) / n
}

// replay runs one RunBatch call's inputs through the plan's model on one
// goroutine, layer by layer, through the same public calls and the same
// kernel-batch chunking as sim.Engine's fast path, timing each step. Its
// outputs must equal the engine's `==` exactly; the caller checks. Each
// layer's replay is recorded as one span on tr.
func replay(p *accel.Plan, seed int64, inputs []*dnn.Tensor, tr *tracer) ([][]float64, replayTimes) {
	var rt replayTimes
	m := p.Model
	mappables := m.Mappable()
	last := mappables[len(mappables)-1]
	weights := make([]*quant.Matrix, len(mappables))
	blocked := make([]*quant.BlockedMatrix, len(mappables))
	for _, l := range mappables {
		weights[l.Index], blocked[l.Index] = replayWeights(p, l, seed)
	}
	pb := &quant.PackedBatch{}
	var flat, out []float64
	var u16 []uint16
	var acc []int64

	// kernel runs one kernel batch already packed in pb into out and
	// dequantizes it, as the engine's fast kernel stage does.
	kernel := func(w *quant.Matrix, bw *quant.BlockedMatrix) {
		start := time.Now()
		B, cols := pb.B, w.Cols
		out = grow(out, B*cols)
		clear(out)
		if bw != nil {
			u16 = grow(u16, B*pb.N)
			bw.MulBatch(pb, out, u16)
		} else {
			acc = grow(acc, cols)
			mulBatchScalar(w, pb, out, acc)
		}
		for k := 0; k < B; k++ {
			f := pb.Scales[k]
			o := out[k*cols : (k+1)*cols]
			for j := range o {
				o[j] = w.ScaleFor(j) * f * o[j]
			}
		}
		rt.kernel += time.Since(start)
		rt.macs += int64(B) * int64(w.Rows) * int64(cols)
		rt.weightBytes += int64(w.Rows) * int64(cols)
	}
	quantize := func(n, b int) {
		start := time.Now()
		pb = quant.QuantizeBatchFlatCodesInto(pb, flat, n, b)
		rt.actQuantize += time.Since(start)
	}
	relu := func(x []float64) {
		start := time.Now()
		dnn.ReLU(x)
		rt.relu += time.Since(start)
	}

	curs := append([]*dnn.Tensor(nil), inputs...)
	var flats [][]float64
	for _, l := range m.Layers {
		layerStart := time.Now()
		switch l.Kind {
		case dnn.Conv:
			w, bw := weights[l.Index], blocked[l.Index]
			outs := make([]*dnn.Tensor, len(curs))
			for i := range outs {
				outs[i] = dnn.NewTensor(l.OutC, l.OutH, l.OutW)
			}
			positions := l.OutH * l.OutW
			patchLen := curs[0].C * l.K * l.K
			n := len(curs) * positions
			kb := sim.DefaultKernelBatch
			if per := n / runtime.NumCPU(); per < kb {
				kb = max(per, 1)
			}
			for lo := 0; lo < n; lo += kb {
				bs := min(kb, n-lo)
				start := time.Now()
				flat = grow(flat, bs*patchLen)
				for i := 0; i < bs; i++ {
					ii, pos := (lo+i)/positions, (lo+i)%positions
					curs[ii].PatchInto(flat[i*patchLen:(i+1)*patchLen], l, pos/l.OutW, pos%l.OutW)
				}
				rt.im2col += time.Since(start)
				quantize(patchLen, bs)
				kernel(w, bw)
				start = time.Now()
				for i := 0; i < bs; i++ {
					ii, pos := (lo+i)/positions, (lo+i)%positions
					for ch, v := range out[i*w.Cols : (i+1)*w.Cols] {
						outs[ii].Set(ch, pos/l.OutW, pos%l.OutW, v)
					}
				}
				rt.scatter += time.Since(start)
			}
			curs = outs
			if l != last {
				for _, c := range curs {
					relu(c.Data)
				}
			}
		case dnn.Pool:
			start := time.Now()
			for i := range curs {
				curs[i] = dnn.PoolMaxRef(l, curs[i])
			}
			rt.pool += time.Since(start)
		case dnn.FC:
			if flats == nil {
				flats = flatten(curs)
			}
			w, bw := weights[l.Index], blocked[l.Index]
			rows, n := w.Rows, len(flats)
			kb := min(sim.DefaultKernelBatch, n)
			for lo := 0; lo < n; lo += kb {
				bs := min(kb, n-lo)
				start := time.Now()
				flat = grow(flat, bs*rows)
				for i := 0; i < bs; i++ {
					copy(flat[i*rows:(i+1)*rows], flats[lo+i])
				}
				rt.im2col += time.Since(start)
				quantize(rows, bs)
				kernel(w, bw)
				start = time.Now()
				for i := 0; i < bs; i++ {
					flats[lo+i] = append(flats[lo+i][:0], out[i*w.Cols:(i+1)*w.Cols]...)
				}
				rt.scatter += time.Since(start)
			}
			if l != last {
				for _, f := range flats {
					relu(f)
				}
			}
		}
		tr.add("replay."+l.Name, 0, 0, layerStart, time.Now())
	}
	if flats == nil {
		flats = flatten(curs)
	}
	return flats, rt
}

// replayWeights quantizes a layer's synthetic weights the way the engine
// does for the plan and options seed, with the AVX2 blocked packing when
// the host has it (nil otherwise).
func replayWeights(p *accel.Plan, l *dnn.Layer, seed int64) (*quant.Matrix, *quant.BlockedMatrix) {
	bits := p.Layers[l.Index].WeightBits
	if bits < 1 {
		bits = p.Cfg.WeightBits
	}
	w := quant.QuantizeWeightsN(dnn.SyntheticWeights(l, seed), bits)
	return w, w.Blocked()
}

// mulBatchScalar is the signed integer product Σ_i q[i][j]·u_k[i] of every
// member, as exact as the engine's kernels, for hosts without AVX2.
func mulBatchScalar(w *quant.Matrix, pb *quant.PackedBatch, out []float64, acc []int64) {
	cols := w.Cols
	for k := 0; k < pb.B; k++ {
		clear(acc)
		for i, u := range pb.Member(k) {
			if u == 0 {
				continue
			}
			for j, q := range w.Q[i*cols : (i+1)*cols] {
				acc[j] += int64(q) * int64(u)
			}
		}
		o := out[k*cols : (k+1)*cols]
		for j, a := range acc {
			o[j] = float64(a)
		}
	}
}

func flatten(ts []*dnn.Tensor) [][]float64 {
	out := make([][]float64, len(ts))
	for i, t := range ts {
		out[i] = t.Flatten()
	}
	return out
}

// grow returns s resized to n, reallocating only when it is too small.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
