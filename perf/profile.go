package main

// Layer shares from a CPU profile. Spans cannot split causal from netsim
// or wtp from the radio (the harness has no seam between them), and the
// partitioned engine builds its own worlds, so no wrapper reaches it. A
// CPU profile of a bare repetition does both: every sample is charged to
// the innermost frame that belongs to a package of this repository, so
// runtime work (allocation, map access, memmove) lands on the layer that
// asked for it. Packages are the layers.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"runtime/pprof"
	"strings"
)

// protoReader walks one protobuf message (the pprof profile format; the
// standard library writes it but exports no reader).
type protoReader struct {
	b   []byte
	err error
}

func (p *protoReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("profile: varint overflow")
	return 0
}

// next returns the next field: its number, and either its varint value or
// its length-delimited bytes. Fixed-width fields are skipped.
func (p *protoReader) next() (field int, v uint64, data []byte, ok bool) {
	for len(p.b) > 0 && p.err == nil {
		key := p.varint()
		field = int(key >> 3)
		switch key & 7 {
		case 0:
			return field, p.varint(), nil, p.err == nil
		case 2:
			n := p.varint()
			if uint64(len(p.b)) < n {
				p.err = io.ErrUnexpectedEOF
				return 0, 0, nil, false
			}
			data, p.b = p.b[:n], p.b[n:]
			return field, 0, data, p.err == nil
		case 1:
			p.b = p.b[min(8, len(p.b)):]
		case 5:
			p.b = p.b[min(4, len(p.b)):]
		default:
			p.err = errors.New("profile: unsupported wire type")
		}
	}
	return 0, 0, nil, false
}

// repeatedVarints reads a repeated scalar that may be packed or not.
func repeatedVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	r := protoReader{b: data}
	for len(r.b) > 0 && r.err == nil {
		dst = append(dst, r.varint())
	}
	return dst
}

// profileSamples decodes a gzipped pprof profile into (stack of function
// names leaf first, sample count) pairs.
func profileSamples(gz []byte, visit func(stack []string, count int64)) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	top := protoReader{b: raw}
	for {
		field, _, data, ok := top.next()
		if !ok {
			break
		}
		switch field {
		case 2: // Sample
			var s sample
			var values []uint64
			r := protoReader{b: data}
			for {
				f, v, d, ok := r.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					s.locs = repeatedVarints(s.locs, v, d)
				case 2:
					values = repeatedVarints(values, v, d)
				}
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			r := protoReader{b: data}
			for {
				f, v, d, ok := r.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					lr := protoReader{b: d}
					for {
						lf, lv, _, ok := lr.next()
						if !ok {
							break
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			r := protoReader{b: data}
			for {
				f, v, _, ok := r.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNames[id] = name
		case 6:
			strs = append(strs, string(data))
		}
	}
	if top.err != nil {
		return top.err
	}
	var stack []string
	for _, s := range samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		visit(stack, s.count)
	}
	return nil
}

const (
	layerRuntime = "runtime" // no frame of this repository on the stack
	layerHarness = "harness" // only the benchmark's own frames
)

// layerOf names the layer a stack's time belongs to: the package of the
// innermost repro/internal frame, else the harness, else the runtime.
func layerOf(stack []string) string {
	harness := false
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			if i := strings.IndexAny(rest, ".("); i > 0 {
				return rest[:i]
			}
		}
		if strings.HasPrefix(fn, "repro/perf.") || strings.HasPrefix(fn, "main.") {
			harness = true
		}
	}
	if harness {
		return layerHarness
	}
	return layerRuntime
}

// profileShares runs fn under the CPU profiler and returns each layer's
// share of the samples, in percent, and the sample count.
func profileShares(fn func()) (map[string]float64, int64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, err
	}
	fn()
	pprof.StopCPUProfile()
	counts := map[string]int64{}
	var total int64
	err := profileSamples(buf.Bytes(), func(stack []string, n int64) {
		counts[layerOf(stack)] += n
		total += n
	})
	if err != nil {
		return nil, 0, err
	}
	shares := map[string]float64{}
	for layer, n := range counts {
		shares[layer] = 100 * float64(n) / float64(max(total, 1))
	}
	return shares, total, nil
}
