package train

// Checkpointing: a compact binary serialization of an executor's learned
// parameters and batch-norm running statistics, so example applications
// and long experiments can save and resume training.
//
// The format is crash-safe: a little-endian stream of magic, format
// version, the payload (node count, then per parameterized node its name,
// parameter tensors and any batch-norm running statistics), a resume
// section — per-node momentum tensors, the RNG state (u64) and the
// completed-step count (u32), so a paused job resumes byte-identically to
// a run that was never interrupted — and a CRC32 trailer over everything
// before it. Loading verifies the trailer, then parses and validates the
// entire checkpoint against the graph before touching any executor state,
// so a corrupt or mismatched checkpoint never leaves the executor
// half-restored. SaveCheckpointFile writes atomically (temp file + fsync +
// verify + rename): a crash mid-write leaves the previous checkpoint
// intact. Version 3 is the only format read or written: the unversioned,
// unchecksummed v1 stream is rejected as a bad magic and the resume-less
// v2 as an unsupported version.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"gist/internal/graph"
	"gist/internal/layers"
	"gist/internal/tensor"
)

const (
	// checkpointMagic marks the versioned, CRC-trailed format ("gISU").
	checkpointMagic = uint32(0x67495355)
	// checkpointVersion is the one format version this build reads and
	// writes.
	checkpointVersion = uint32(3)
	// maxCheckpointString bounds any length-prefixed string in the stream.
	maxCheckpointString = 1 << 20
)

// Typed checkpoint errors. Callers branch on these with errors.Is; every
// malformed input maps to one of them (never a panic).
var (
	// ErrCorruptCheckpoint reports a stream that is not a well-formed
	// checkpoint: bad magic, failed CRC, truncation, or any field that
	// contradicts the bytes that remain.
	ErrCorruptCheckpoint = errors.New("train: corrupt checkpoint")
	// ErrCheckpointVersion reports a well-formed header with a version this
	// build does not understand.
	ErrCheckpointVersion = errors.New("train: unsupported checkpoint version")
	// ErrCheckpointMismatch reports a valid checkpoint that does not match
	// the executor's graph (unknown node, wrong arity or shape).
	ErrCheckpointMismatch = errors.New("train: checkpoint does not match graph")
)

// leWriter is a sticky-error little-endian writer: after the first failed
// write every later one is a no-op, and err holds that failure. Floats go
// out through buf, so a tensor of any size streams without a copy of it.
type leWriter struct {
	w   io.Writer
	err error
	buf [512]byte
}

func (w *leWriter) write(b []byte) {
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
}

func (w *leWriter) u32(v uint32) { w.write(binary.LittleEndian.AppendUint32(w.buf[:0], v)) }
func (w *leWriter) u64(v uint64) { w.write(binary.LittleEndian.AppendUint64(w.buf[:0], v)) }

func (w *leWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.write([]byte(s))
}

func (w *leWriter) f32s(vs []float32) {
	for len(vs) > 0 {
		b := w.buf[:0]
		for len(vs) > 0 && len(b) < len(w.buf) {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(vs[0]))
			vs = vs[1:]
		}
		w.write(b)
	}
}

func (w *leWriter) tensor(t *tensor.Tensor) {
	w.u32(uint32(len(t.Shape)))
	for _, d := range t.Shape {
		w.u32(uint32(d))
	}
	w.f32s(t.Data)
}

// cpReader is a bounds-checked cursor over an in-memory checkpoint
// payload. Every read knows exactly how many bytes remain, so a
// short-but-wrong length prefix fails immediately with
// ErrCorruptCheckpoint instead of misparsing downstream fields.
type cpReader struct {
	data []byte
	off  int
}

func (r *cpReader) remaining() int { return len(r.data) - r.off }

func (r *cpReader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, fmt.Errorf("%w: truncated at offset %d", ErrCorruptCheckpoint, r.off)
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

func (r *cpReader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("%w: truncated at offset %d", ErrCorruptCheckpoint, r.off)
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}

func (r *cpReader) bytes(n int) ([]byte, error) {
	if n < 0 || n > r.remaining() {
		return nil, fmt.Errorf("%w: field of %d bytes with %d remaining at offset %d",
			ErrCorruptCheckpoint, n, r.remaining(), r.off)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

// readString reads a length-prefixed string, bounding the length both by
// the absolute cap and by the bytes actually remaining in the stream.
func readString(r *cpReader) (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if n > maxCheckpointString {
		return "", fmt.Errorf("%w: string length %d exceeds cap", ErrCorruptCheckpoint, n)
	}
	b, err := r.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// readF32s reads n little-endian float32 values.
func readF32s(r *cpReader, n int) ([]float32, error) {
	b, err := r.bytes(n * 4)
	if err != nil {
		return nil, err
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}

// readTensor reads a shape-prefixed tensor, bounding rank, dimensions and
// total element count against the remaining stream before allocating.
func readTensor(r *cpReader) (*tensor.Tensor, error) {
	rank, err := r.u32()
	if err != nil {
		return nil, err
	}
	if rank > 8 {
		return nil, fmt.Errorf("%w: tensor rank %d", ErrCorruptCheckpoint, rank)
	}
	shape := make(tensor.Shape, rank)
	elems := int64(1)
	for i := range shape {
		d, err := r.u32()
		if err != nil {
			return nil, err
		}
		if d == 0 || int64(d) > int64(r.remaining()) {
			return nil, fmt.Errorf("%w: tensor dimension %d with %d bytes remaining",
				ErrCorruptCheckpoint, d, r.remaining())
		}
		shape[i] = int(d)
		// Bounding elems by the stream size on every multiply keeps the
		// product from overflowing and rejects impossible shapes early.
		elems *= int64(d)
		if elems*4 > int64(len(r.data)) {
			return nil, fmt.Errorf("%w: tensor of %d+ elements exceeds stream size %d",
				ErrCorruptCheckpoint, elems, len(r.data))
		}
	}
	data, err := readF32s(r, int(elems))
	if err != nil {
		return nil, err
	}
	return &tensor.Tensor{Shape: shape, Data: data}, nil
}

// The payload is two sections of the same entry layout, one per
// parameterized node in node order: the parameter section, whose entries
// end with the node's batch-norm running statistics (a zero count on other
// nodes), and the momentum section, whose entries do not.

// writeSection writes one section from state, e.params or e.moms.
func (e *Executor) writeSection(w *leWriter, state [][]*tensor.Tensor, stats bool) {
	var count uint32
	for _, ts := range state {
		if len(ts) > 0 {
			count++
		}
	}
	w.u32(count)
	for _, n := range e.G.Nodes {
		ts := state[n.ID]
		if len(ts) == 0 {
			continue
		}
		w.str(n.Name)
		w.u32(uint32(len(ts)))
		for _, t := range ts {
			w.tensor(t)
		}
		if stats {
			var mean, variance []float32
			if bn, ok := n.Op.(*layers.BatchNormOp); ok {
				mean, variance = bn.RunningMean, bn.RunningVar
			}
			w.u32(uint32(len(mean)))
			w.f32s(mean)
			w.f32s(variance)
		}
	}
}

// SaveCheckpoint writes the executor's parameters, batch-norm running
// statistics and full resume state (momenta, RNG, completed-step count)
// to w in the v3 format (versioned header, CRC32 trailer).
func (e *Executor) SaveCheckpoint(w io.Writer) error {
	bw := bufio.NewWriter(w)
	h := crc32.NewIEEE()
	lw := &leWriter{w: io.MultiWriter(bw, h)}
	lw.u32(checkpointMagic)
	lw.u32(checkpointVersion)
	e.writeSection(lw, e.params, true)
	e.writeSection(lw, e.moms, false)
	lw.u64(e.rng.State())
	lw.u32(uint32(e.resumeStep))
	// The CRC trailer covers everything before it, so it bypasses the hash.
	lw.w = bw
	lw.u32(h.Sum32())
	if lw.err != nil {
		return lw.err
	}
	return bw.Flush()
}

// ckptNode is one parsed and validated section entry, staged for commit.
type ckptNode struct {
	node           *graph.Node
	tensors        []*tensor.Tensor
	mean, variance []float32
}

// parseSection parses one section and validates each entry against state,
// e.params or e.moms, without touching the executor.
func (e *Executor) parseSection(r *cpReader, state [][]*tensor.Tensor, stats bool) ([]ckptNode, error) {
	what, entryBytes := "momentum", 8 // name length, tensor count
	if stats {
		what, entryBytes = "parameter", 12 // and the statistics count
	}
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	// A count beyond what the remaining bytes can hold is a corrupt
	// header, not a huge checkpoint.
	if int64(count) > int64(r.remaining()/entryBytes)+1 {
		return nil, fmt.Errorf("%w: %s section of %d nodes with %d bytes remaining",
			ErrCorruptCheckpoint, what, count, r.remaining())
	}
	nodes := make([]ckptNode, 0, count)
	for range count {
		name, err := readString(r)
		if err != nil {
			return nil, err
		}
		cn := ckptNode{node: e.G.Lookup(name)}
		if cn.node == nil {
			return nil, fmt.Errorf("%w: %s section: node %q not in graph", ErrCheckpointMismatch, what, name)
		}
		want := state[cn.node.ID]
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		if int64(n) > int64(r.remaining()/4)+1 {
			return nil, fmt.Errorf("%w: %s section: node %q claims %d tensors with %d bytes remaining",
				ErrCorruptCheckpoint, what, name, n, r.remaining())
		}
		if int(n) != len(want) {
			return nil, fmt.Errorf("%w: %s section: node %q has %d tensors, checkpoint has %d",
				ErrCheckpointMismatch, what, name, len(want), n)
		}
		for j := range want {
			t, err := readTensor(r)
			if err != nil {
				return nil, err
			}
			if !t.Shape.Equal(want[j].Shape) {
				return nil, fmt.Errorf("%w: %s section: node %q tensor %d shape %v, checkpoint %v",
					ErrCheckpointMismatch, what, name, j, want[j].Shape, t.Shape)
			}
			cn.tensors = append(cn.tensors, t)
		}
		if stats {
			nStats, err := r.u32()
			if err != nil {
				return nil, err
			}
			if int64(nStats)*8 > int64(r.remaining()) {
				return nil, fmt.Errorf("%w: %d batch-norm stats with %d bytes remaining",
					ErrCorruptCheckpoint, nStats, r.remaining())
			}
			if cn.mean, err = readF32s(r, int(nStats)); err != nil {
				return nil, err
			}
			if cn.variance, err = readF32s(r, int(nStats)); err != nil {
				return nil, err
			}
		}
		nodes = append(nodes, cn)
	}
	return nodes, nil
}

// commitSection copies a parsed section into state, e.params or e.moms,
// and restores the batch-norm statistics it carries.
func commitSection(nodes []ckptNode, state [][]*tensor.Tensor) {
	for _, cn := range nodes {
		for j, t := range cn.tensors {
			copy(state[cn.node.ID][j].Data, t.Data)
		}
		if bn, ok := cn.node.Op.(*layers.BatchNormOp); ok && len(cn.mean) > 0 {
			bn.RunningMean, bn.RunningVar = cn.mean, cn.variance
		}
	}
}

// LoadCheckpoint restores the parameters, batch-norm statistics, momenta,
// RNG state and completed-step count saved by SaveCheckpoint into this
// executor. The graph must contain the same parameterized node names with
// the same shapes. The whole stream is verified, parsed and validated
// before any executor state changes, so a failed load leaves the executor
// untouched.
func (e *Executor) LoadCheckpoint(r io.Reader) error { return loadCheckpoint(e, r) }

// VerifyCheckpoint checks that a byte stream is a structurally sound
// checkpoint: correct magic, the supported version and a matching CRC
// trailer. It does not compare against any graph.
func VerifyCheckpoint(data []byte) error {
	return verifyCheckpoint(bytes.NewReader(data), int64(len(data)))
}

// verifyCheckpoint is VerifyCheckpoint over the first size bytes of r,
// streamed through one fixed buffer.
func verifyCheckpoint(r io.ReaderAt, size int64) error {
	if size < 4 {
		return fmt.Errorf("%w: %d-byte stream", ErrCorruptCheckpoint, size)
	}
	var buf [8 << 10]byte
	head := buf[:min(size, 8)]
	if _, err := r.ReadAt(head, 0); err != nil {
		return err
	}
	if magic := binary.LittleEndian.Uint32(head); magic != checkpointMagic {
		return fmt.Errorf("%w: not a gist checkpoint (magic %#x)", ErrCorruptCheckpoint, magic)
	}
	if size < 12 {
		return fmt.Errorf("%w: stream of %d bytes", ErrCorruptCheckpoint, size)
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != checkpointVersion {
		return fmt.Errorf("%w: version %d (supported: %d)", ErrCheckpointVersion, v, checkpointVersion)
	}
	var got uint32
	for off := int64(0); off < size-4; {
		chunk := buf[:min(int64(len(buf)), size-4-off)]
		if _, err := r.ReadAt(chunk, off); err != nil {
			return err
		}
		got = crc32.Update(got, crc32.IEEETable, chunk)
		off += int64(len(chunk))
	}
	if _, err := r.ReadAt(buf[:4], size-4); err != nil {
		return err
	}
	if want := binary.LittleEndian.Uint32(buf[:4]); got != want {
		return fmt.Errorf("%w: CRC %#x, trailer %#x", ErrCorruptCheckpoint, got, want)
	}
	return nil
}

// SaveCheckpointFile atomically writes the executor's checkpoint to path:
// the stream goes to a temp file in the same directory, is fsynced,
// re-read and CRC-verified, and only then renamed over path. A crash or
// torn write at any point leaves the previous checkpoint file intact.
func (e *Executor) SaveCheckpointFile(path string) error {
	return e.SaveCheckpointFileVia(path, nil)
}

// SaveCheckpointFileVia is SaveCheckpointFile with an optional writer
// wrapper interposed on the stream — the hook the fault injector uses to
// tear or corrupt the write. Because the temp file is verified before the
// rename, an injected tear is caught here and the previous checkpoint
// survives.
func (e *Executor) SaveCheckpointFileVia(path string, wrap func(io.Writer) io.Writer) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()

	var w io.Writer = tmp
	if wrap != nil {
		w = wrap(w)
	}
	if err = e.SaveCheckpoint(w); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	// Verify what actually reached the disk before promoting it.
	size, err := tmp.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if err = verifyCheckpoint(tmp, size); err != nil {
		return fmt.Errorf("train: refusing to promote checkpoint: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Persist the rename itself (best effort — some filesystems refuse
	// directory fsync).
	if df, derr := os.Open(dir); derr == nil {
		df.Sync()
		df.Close()
	}
	return nil
}

// LoadCheckpointFile restores a checkpoint written by SaveCheckpointFile.
func (e *Executor) LoadCheckpointFile(path string) error { return LoadCheckpointFile(e, path) }

// LoadCheckpointFile restores a checkpoint into every executor of the
// engine. The file is read, verified, parsed and validated once, against
// the lead's graph, and the parameters and momenta are committed once,
// into the lead's flats, which a group's replicas view. Each other executor
// then takes its own copy of the batch-norm statistics, and every executor
// the RNG state; the engine's step clock aligns to the checkpoint's
// completed-step count.
func LoadCheckpointFile(en Engine, path string) error {
	f, err := openCheckpoint(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return loadCheckpoint(en, f)
}

// openCheckpoint opens the file LoadCheckpointFile reads; a test swaps it
// to count the reads a load makes.
var openCheckpoint = func(path string) (io.ReadCloser, error) { return os.Open(path) }

// loadCheckpoint is LoadCheckpointFile over a stream.
func loadCheckpoint(en Engine, r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	if err := VerifyCheckpoint(data); err != nil {
		return err
	}
	execs := en.Executors()
	lead := execs[0]
	body := &cpReader{data: data[:len(data)-4], off: 8}
	params, err := lead.parseSection(body, lead.params, true)
	if err != nil {
		return err
	}
	moms, err := lead.parseSection(body, lead.moms, false)
	if err != nil {
		return err
	}
	rngState, err := body.u64()
	if err != nil {
		return err
	}
	resumeStep, err := body.u32()
	if err != nil {
		return err
	}
	commitSection(params, lead.params)
	commitSection(moms, lead.moms)
	for _, e := range execs {
		if e != lead {
			for _, cn := range params {
				// A replica's graph is a clone of the lead's, node IDs kept.
				if bn, ok := e.G.Nodes[cn.node.ID].Op.(*layers.BatchNormOp); ok && len(cn.mean) > 0 {
					bn.RunningMean, bn.RunningVar = slices.Clone(cn.mean), slices.Clone(cn.variance)
				}
			}
		}
		e.rng.SetState(rngState)
	}
	en.SetResumeStep(int(resumeStep))
	return nil
}
