// Package tracecodec compresses energy-trace sample streams for the wire
// protocol, whose only trace frame (wire.TraceZ) carries its blobs. A raw
// sample would cost 16 bytes — a full uint64 timestamp plus a float64
// voltage — for data that is really a monotone clock plus a value on
// EDB's 12-bit ADC grid. The codec exploits both regularities:
//
//   - Timestamps are varint delta-of-delta encoded (the sampler fires on a
//     fixed period, so the second difference is almost always zero — one
//     byte per sample).
//   - Voltages are quantized onto the 12-bit ADC grid of the Table-3 model
//     (mid-tread codes, VRef = 3.0 V — the ideal transfer of
//     internal/circuit's ADC, without its per-instance noise and offset)
//     and encoded as bit-packed code deltas. Consecutive Vcap readings
//     differ by a handful of LSBs, so most samples cost 1–7 bits.
//   - Values the converter could not report faithfully — negative, at or
//     above VRef, or non-finite — escape as raw IEEE-754 bits, so decoding
//     is lossless with respect to what the ADC would have reported: every
//     in-range sample decodes to exactly its grid reconstruction
//     (Quantize), and every out-of-range sample decodes bit-for-bit.
//
// Blob layout (every Encode call emits one self-contained blob, so chunks
// decode independently):
//
//	uvarint  tsLen            byte length of the timestamp section
//	tsLen bytes:
//	    uvarint  At[0]
//	    varint   At[1]-At[0]                               (zigzag, wrapping)
//	    varint   (At[i]-At[i-1]) - (At[i-1]-At[i-2])       for i >= 2
//	value bitstream, MSB-first, one record per sample:
//	    0                   same grid code as the previous grid sample
//	    10  + 5-bit zigzag  grid-code delta d, d != 0, -16 <= d <= 15
//	    110 + 12-bit code   absolute grid code (no previous code, or the
//	                        delta is out of the 5-bit range)
//	    111 + 64 bits       raw escape: IEEE-754 bits of an off-grid value
//	trailing pad bits of the final byte are zero
//
// Encoding is canonical: for every decodable (blob, count) pair,
// re-encoding the decoded samples reproduces the blob byte-for-byte
// (FuzzTraceCodec enforces it, mirroring internal/wire's guarantee). The
// decoder therefore rejects non-minimal varints, records written in a
// longer form than the encoder would choose, zero-delta deltas, escapes of
// quantizable values, and non-zero pad bits.
package tracecodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/wire"
)

// The ADC grid: internal/circuit.NewADC's ideal transfer function
// (TestGridMatchesADC ties these to the circuit model).
const (
	// GridBits is the converter's resolution.
	GridBits = 12
	// Levels is the number of quantization levels.
	Levels = 1 << GridBits
	// VRef is the converter's reference voltage in volts.
	VRef = 3.0
	// LSB is the voltage of one code step.
	LSB = VRef / Levels
)

// MaxBlobSize bounds the encoded size of n samples: at most 10 bytes of
// timestamp varint and ceil(67/8) bytes of value record per sample, plus
// the section length prefix. Callers size chunks so that
// MaxBlobSize(chunk) stays under the frame limit.
func MaxBlobSize(n int) int { return 6 + 19*n }

// ErrCorrupt reports a blob the decoder rejected; the wrapped detail says
// why.
var ErrCorrupt = errors.New("tracecodec: corrupt blob")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// gridCode returns the code an ideal Table-3 ADC reports for v, and
// whether v is inside the converter's input range. It mirrors
// circuit.ADC.Sample with zero noise and offset: truncation to the
// mid-tread code, clamped at the top level (v just below VRef can round to
// Levels in float64).
func gridCode(v float64) (uint16, bool) {
	if !(v >= 0) || v >= VRef { // !(v>=0) also catches NaN
		return 0, false
	}
	c := int(v / LSB)
	if c >= Levels {
		c = Levels - 1
	}
	return uint16(c), true
}

// CodeToVolts returns the mid-tread reconstruction of a grid code — the
// voltage EDB's software sees for that code.
func CodeToVolts(c uint16) float64 { return (float64(c) + 0.5) * LSB }

// Quantize returns the voltage a sample decodes to after a codec round
// trip: the grid reconstruction for in-range values, v itself (raw escape)
// otherwise. It is idempotent.
func Quantize(v float64) float64 {
	if c, ok := gridCode(v); ok {
		return CodeToVolts(c)
	}
	return v
}

// Value-record forms. The 5-bit delta form covers |d| <= 15 (and -16, the
// zigzag range), excluding 0, which has its own 1-bit form.
const (
	deltaBits    = 5
	maxDeltaMag  = 1<<(deltaBits-1) - 1    // 15
	minDelta     = -(1 << (deltaBits - 1)) // -16
	escapeHeader = 0b111
)

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen returns the minimal uvarint encoding length of v.
func uvarintLen(v uint64) int {
	if v == 0 {
		return 1
	}
	return (bits.Len64(v) + 6) / 7
}

// Encoder turns trace samples into blobs. The zero value is ready to use;
// its scratch buffers are reused across Encode calls, so a long-lived
// Encoder makes the server's streaming path allocation-free after warm-up.
type Encoder struct {
	ts []byte
	bw bitWriter
}

// Encode appends one self-contained blob encoding samples to dst and
// returns the extended slice. Encode cannot fail: every timestamp and
// every float64 has an encoding (off-grid values escape raw).
func (e *Encoder) Encode(dst []byte, samples []wire.TracePoint) []byte {
	e.ts = e.ts[:0]
	e.bw.reset()
	var prevAt, prevDelta uint64
	prevCode := -1
	for i, s := range samples {
		switch i {
		case 0:
			e.ts = binary.AppendUvarint(e.ts, s.At)
		case 1:
			prevDelta = s.At - prevAt
			e.ts = binary.AppendVarint(e.ts, int64(prevDelta))
		default:
			d := s.At - prevAt
			e.ts = binary.AppendVarint(e.ts, int64(d-prevDelta))
			prevDelta = d
		}
		prevAt = s.At

		if c, ok := gridCode(s.V); ok {
			cc := int(c)
			switch d := cc - prevCode; {
			case prevCode >= 0 && d == 0:
				e.bw.put(0b0, 1)
			case prevCode >= 0 && d >= minDelta && d <= maxDeltaMag:
				e.bw.put(0b10, 2)
				e.bw.put(zigzag(int64(d)), deltaBits)
			default:
				e.bw.put(0b110, 3)
				e.bw.put(uint64(cc), GridBits)
			}
			prevCode = cc
		} else {
			e.bw.put(escapeHeader, 3)
			e.bw.put(math.Float64bits(s.V), 64)
		}
	}
	vals := e.bw.flush()
	dst = binary.AppendUvarint(dst, uint64(len(e.ts)))
	dst = append(dst, e.ts...)
	return append(dst, vals...)
}

// Decode appends the count samples encoded in blob to dst and returns the
// extended slice (pass scratch[:0] to reuse a buffer across chunks). Every
// length is validated against the bytes actually present before any
// allocation, so a hostile count can never over-allocate, and every
// accepted blob re-encodes to itself.
func Decode(dst []wire.TracePoint, blob []byte, count int) ([]wire.TracePoint, error) {
	if count < 0 {
		return dst, corrupt("negative sample count")
	}
	tsLen, n, err := readUvarint(blob)
	if err != nil {
		return dst, err
	}
	rest := blob[n:]
	// Each timestamp is at least one varint byte and each value at least
	// one bit: cheap upper bounds that reject hostile counts before the
	// output slice grows.
	if tsLen > uint64(len(rest)) || (count > 0 && uint64(count) > tsLen) {
		return dst, corrupt("count %d does not fit %d blob bytes", count, len(blob))
	}
	ts, vals := rest[:tsLen], rest[tsLen:]
	if uint64(len(vals)) < (uint64(count)+7)/8 {
		return dst, corrupt("value section too short for %d samples", count)
	}

	br := bitReader{b: vals}
	var prevAt, prevDelta uint64
	prevCode := -1
	for i := 0; i < count; i++ {
		var at uint64
		switch i {
		case 0:
			v, n, err := readUvarint(ts)
			if err != nil {
				return dst, err
			}
			ts, at = ts[n:], v
		case 1:
			v, n, err := readVarint(ts)
			if err != nil {
				return dst, err
			}
			ts, prevDelta = ts[n:], uint64(v)
			at = prevAt + prevDelta
		default:
			v, n, err := readVarint(ts)
			if err != nil {
				return dst, err
			}
			ts = ts[n:]
			prevDelta += uint64(v)
			at = prevAt + prevDelta
		}
		prevAt = at

		val, code, err := decodeValue(&br, prevCode)
		if err != nil {
			return dst, err
		}
		if code >= 0 {
			prevCode = code
		}
		dst = append(dst, wire.TracePoint{At: at, V: val})
	}
	if len(ts) != 0 {
		return dst, corrupt("%d trailing timestamp bytes", len(ts))
	}
	if err := br.close(); err != nil {
		return dst, err
	}
	return dst, nil
}

// decodeValue reads one value record. It returns the decoded voltage and
// the grid code it establishes (-1 for a raw escape), enforcing the
// canonical-form rules the encoder follows.
func decodeValue(br *bitReader, prevCode int) (float64, int, error) {
	b, ok := br.get(1)
	if !ok {
		return 0, 0, corrupt("truncated value record")
	}
	if b == 0 { // same code as the previous grid sample
		if prevCode < 0 {
			return 0, 0, corrupt("repeat record with no previous code")
		}
		return CodeToVolts(uint16(prevCode)), prevCode, nil
	}
	b, ok = br.get(1)
	if !ok {
		return 0, 0, corrupt("truncated value record")
	}
	if b == 0 { // 5-bit code delta
		z, ok := br.get(deltaBits)
		if !ok {
			return 0, 0, corrupt("truncated delta record")
		}
		d := int(unzigzag(z))
		if d == 0 {
			return 0, 0, corrupt("non-canonical zero delta")
		}
		if prevCode < 0 {
			return 0, 0, corrupt("delta record with no previous code")
		}
		c := prevCode + d
		if c < 0 || c >= Levels {
			return 0, 0, corrupt("delta walks code off the grid")
		}
		return CodeToVolts(uint16(c)), c, nil
	}
	b, ok = br.get(1)
	if !ok {
		return 0, 0, corrupt("truncated value record")
	}
	if b == 0 { // absolute grid code
		c, ok := br.get(GridBits)
		if !ok {
			return 0, 0, corrupt("truncated absolute record")
		}
		if prevCode >= 0 {
			if d := int(c) - prevCode; d >= minDelta && d <= maxDeltaMag {
				return 0, 0, corrupt("non-canonical absolute code (delta form fits)")
			}
		}
		return CodeToVolts(uint16(c)), int(c), nil
	}
	// Raw escape.
	u, ok := br.get(64)
	if !ok {
		return 0, 0, corrupt("truncated escape record")
	}
	v := math.Float64frombits(u)
	if _, grid := gridCode(v); grid {
		return 0, 0, corrupt("non-canonical escape of a grid value")
	}
	return v, -1, nil
}

// readUvarint decodes one minimally-encoded uvarint from the front of b.
func readUvarint(b []byte) (uint64, int, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, corrupt("bad varint")
	}
	if n != uvarintLen(v) {
		return 0, 0, corrupt("non-minimal varint")
	}
	return v, n, nil
}

// readVarint decodes one minimally-encoded zigzag varint.
func readVarint(b []byte) (int64, int, error) {
	u, n, err := readUvarint(b)
	if err != nil {
		return 0, 0, err
	}
	return unzigzag(u), n, nil
}

// bitWriter packs MSB-first bits into bytes.
type bitWriter struct {
	b   []byte
	acc uint64
	n   uint
}

func (w *bitWriter) reset() {
	w.b, w.acc, w.n = w.b[:0], 0, 0
}

// put appends the low k bits of v, most significant first.
func (w *bitWriter) put(v uint64, k uint) {
	for k > 24 { // keep acc within 64 bits
		k -= 24
		w.put(v>>k, 24)
		v &= 1<<k - 1
	}
	w.acc = w.acc<<k | v
	w.n += k
	for w.n >= 8 {
		w.n -= 8
		w.b = append(w.b, byte(w.acc>>w.n))
	}
	w.acc &= 1<<w.n - 1
}

// flush pads the final byte with zero bits and returns the stream.
func (w *bitWriter) flush() []byte {
	if w.n > 0 {
		w.b = append(w.b, byte(w.acc<<(8-w.n)))
		w.acc, w.n = 0, 0
	}
	return w.b
}

// bitReader consumes MSB-first bits.
type bitReader struct {
	b   []byte
	acc uint64
	n   uint
}

// get reads k bits; ok is false on exhaustion.
func (r *bitReader) get(k uint) (uint64, bool) {
	if k > 24 {
		hi, ok := r.get(k - 24)
		if !ok {
			return 0, false
		}
		lo, ok := r.get(24)
		if !ok {
			return 0, false
		}
		return hi<<24 | lo, true
	}
	for r.n < k {
		if len(r.b) == 0 {
			return 0, false
		}
		r.acc = r.acc<<8 | uint64(r.b[0])
		r.b = r.b[1:]
		r.n += 8
	}
	r.n -= k
	v := r.acc >> r.n
	r.acc &= 1<<r.n - 1
	return v, true
}

// close verifies the stream is fully consumed: no leftover bytes and only
// zero pad bits in the final byte.
func (r *bitReader) close() error {
	if len(r.b) != 0 {
		return corrupt("%d trailing value bytes", len(r.b))
	}
	if r.acc != 0 {
		return corrupt("non-zero pad bits")
	}
	return nil
}
