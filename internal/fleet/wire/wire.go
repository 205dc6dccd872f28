// Package wire is the serialization layer of the sharded fleet: versioned
// codecs for the job contract (fleet.JobSpec in, fleet.JobResult and
// telemetry samples out) carried as length-prefixed JSON frames over a
// byte stream — the stdin/stdout pipes of a worker subprocess today, a
// socket when the fleet grows multi-host.
//
// Every frame is a Frame envelope: {"v":1,"type":...} plus exactly one
// payload field matching the type. Readers reject unknown versions,
// unknown types, oversized frames and truncated streams with descriptive
// errors; the shard coordinator turns those into per-job errors instead of
// batch failures.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/sink"
	"repro/internal/users"
	"repro/internal/workload"
)

// Version is the protocol version this package reads and writes. A worker
// and coordinator from the same build always agree; mixed builds fail fast
// with ErrVersion instead of mis-decoding.
const Version = 1

// MaxFrame bounds a single frame's payload (64 MiB). Traced results of
// very long runs are the largest frames in practice (a few MB); anything
// near the cap indicates a corrupt length prefix, not a real payload.
const MaxFrame = 64 << 20

// Frame types.
const (
	// TypeShard carries a ShardRequest, coordinator → worker.
	TypeShard = "shard"
	// TypeSample carries one telemetry sample, worker → coordinator.
	TypeSample = "sample"
	// TypeResult carries one finished job, worker → coordinator.
	TypeResult = "result"
	// TypeDone marks the end of a worker's stream (of the current shard, on
	// a long-lived daemon connection that serves several).
	TypeDone = "done"
	// TypeError aborts the shard with a worker-side failure.
	TypeError = "error"
	// TypeHello is a worker daemon's handshake, sent once per accepted
	// connection before anything else: protocol version (the envelope's V)
	// plus the daemon's shard capacity (internal/fleet/net).
	TypeHello = "hello"
	// TypeHeartbeat is a worker's liveness pulse, emitted periodically
	// while a shard executes so the coordinator's read deadline can tell a
	// slow shard from a dead worker. It carries no payload.
	TypeHeartbeat = "heartbeat"
	// TypeCancel asks the worker to abandon the in-flight shard,
	// coordinator → worker. It carries no payload.
	TypeCancel = "cancel"
)

// Sentinel errors for malformed streams.
var (
	// ErrVersion marks a frame from an incompatible protocol version.
	ErrVersion = errors.New("wire: unsupported protocol version")
	// ErrFrameTooLarge marks a length prefix beyond MaxFrame.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrBadFrame marks an undecodable or ill-formed frame.
	ErrBadFrame = errors.New("wire: malformed frame")
)

// Frame is the versioned envelope every message travels in. Exactly one
// payload field is set, matching Type.
type Frame struct {
	V    int    `json:"v"`
	Type string `json:"type"`

	Shard  *ShardRequest `json:"shard,omitempty"`
	Sample *SampleFrame  `json:"sample,omitempty"`
	Result *ResultFrame  `json:"result,omitempty"`
	Hello  *HelloFrame   `json:"hello,omitempty"`
	Err    string        `json:"err,omitempty"`
}

// HelloFrame is a worker daemon's self-description: the protocol version it
// speaks (redundant with the envelope's V, but recorded explicitly so a
// future multi-version coordinator can negotiate) and how many shards it is
// willing to execute concurrently — the coordinator's per-worker in-flight
// cap.
type HelloFrame struct {
	// Proto is the wire protocol version the daemon speaks.
	Proto int `json:"proto"`
	// Capacity is the daemon's concurrent-shard limit (>= 1).
	Capacity int `json:"capacity"`
}

// ShardRequest is the coordinator's single message to a worker: the
// shard's job specs (seeds already resolved, indices global), the
// in-process pool width, an optional serialized predictor backing "usta"
// specs, and whether to stream telemetry samples back. ReadFrame rejects
// unknown fields, so a request carrying a field this build does not know
// fails with ErrBadFrame instead of running with the field silently
// ignored.
type ShardRequest struct {
	Jobs []fleet.JobSpec `json:"jobs"`
	// Workers is the worker process's in-process pool width (<= 0:
	// GOMAXPROCS, via fleet.NormalizeWorkers).
	Workers int `json:"workers,omitempty"`
	// Predictor is a core.SavePredictor document, decoded once per shard.
	Predictor json.RawMessage `json:"predictor,omitempty"`
	// WantSamples asks the worker to forward every telemetry sample as a
	// TypeSample frame tagged with the spec's global index.
	WantSamples bool `json:"want_samples,omitempty"`
	// Event selects the worker's stepping engine (a device.EventMode
	// value: 0 is the plain fixed-tick loop, 3 the jump engine; any other
	// value fails every job of the shard). Carried as an int so the
	// wire package stays free of behavioral coupling; the worker converts
	// it back and applies it to its fleet config, which is what keeps a
	// sharded event run equal to a local run under the same mode.
	Event int `json:"event,omitempty"`
}

// SampleFrame is one telemetry point crossing the process boundary.
type SampleFrame struct {
	// Job is the global job index (fleet.JobSpec.Index).
	Job int `json:"job"`
	// Sample is the telemetry point, verbatim.
	Sample device.Sample `json:"sample"`
}

// ResultFrame is a fleet.JobResult in serializable form: the error
// flattened to its message, everything else carried structurally
// (device.RunResult, including any retained trace and records, is plain
// exported data).
type ResultFrame struct {
	Index    int               `json:"index"`
	Name     string            `json:"name,omitempty"`
	User     users.User        `json:"user,omitempty"`
	SeedUsed int64             `json:"seed_used,omitempty"`
	Result   *device.RunResult `json:"result,omitempty"`
	Err      string            `json:"err,omitempty"`
}

// EncodeResult converts a job result to its wire form.
func EncodeResult(r fleet.JobResult) *ResultFrame {
	rf := &ResultFrame{
		Index:    r.Index,
		Name:     r.Name,
		User:     r.User,
		SeedUsed: r.SeedUsed,
		Result:   r.Result,
	}
	if r.Err != nil {
		rf.Err = r.Err.Error()
	}
	return rf
}

// Decode converts the wire form back to a fleet.JobResult. Retained traces
// are reindexed so Lookup works on the receiving side; flattened errors
// come back as opaque error values (error identity does not survive the
// boundary — the coordinator re-marks cancellations itself).
func (rf *ResultFrame) Decode() fleet.JobResult {
	r := fleet.JobResult{
		Index:    rf.Index,
		Name:     rf.Name,
		User:     rf.User,
		SeedUsed: rf.SeedUsed,
		Result:   rf.Result,
	}
	if r.Result != nil && r.Result.Trace != nil {
		r.Result.Trace.Reindex()
	}
	if rf.Err != "" {
		r.Err = errors.New(rf.Err)
	}
	return r
}

// WriteFrame writes one envelope as a 4-byte big-endian length followed by
// its JSON encoding. Writers must serialize calls on a shared stream.
func WriteFrame(w io.Writer, f *Frame) error {
	b, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("wire: encode %s frame: %w", f.Type, err)
	}
	if len(b) > MaxFrame {
		return fmt.Errorf("%w: %s frame is %d bytes", ErrFrameTooLarge, f.Type, len(b))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadFrame reads and validates one envelope. A clean end of stream
// returns io.EOF; a stream cut mid-frame returns io.ErrUnexpectedEOF;
// ill-formed frames return errors wrapping ErrBadFrame, ErrVersion or
// ErrFrameTooLarge.
func ReadFrame(r io.Reader) (*Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err // io.EOF for a clean end of stream
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: length prefix %d", ErrFrameTooLarge, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, io.ErrUnexpectedEOF // cut mid-frame, never clean
		}
		return nil, err
	}
	// Check the version with a lenient decode first: a newer build's frame
	// may carry envelope fields this build does not know, and that must
	// read as a version mismatch, not a malformed frame.
	var ver struct {
		V int `json:"v"`
	}
	if err := json.Unmarshal(buf, &ver); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if ver.V != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, ver.V, Version)
	}
	var f Frame
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	switch f.Type {
	case TypeShard:
		if f.Shard == nil {
			return nil, fmt.Errorf("%w: shard frame without payload", ErrBadFrame)
		}
	case TypeSample:
		if f.Sample == nil {
			return nil, fmt.Errorf("%w: sample frame without payload", ErrBadFrame)
		}
	case TypeResult:
		if f.Result == nil {
			return nil, fmt.Errorf("%w: result frame without payload", ErrBadFrame)
		}
	case TypeDone, TypeHeartbeat, TypeCancel:
	case TypeHello:
		if f.Hello == nil {
			return nil, fmt.Errorf("%w: hello frame without payload", ErrBadFrame)
		}
		if f.Hello.Capacity < 1 {
			return nil, fmt.Errorf("%w: hello frame with capacity %d", ErrBadFrame, f.Hello.Capacity)
		}
	case TypeError:
		if f.Err == "" {
			return nil, fmt.Errorf("%w: error frame without message", ErrBadFrame)
		}
	default:
		return nil, fmt.Errorf("%w: unknown frame type %q", ErrBadFrame, f.Type)
	}
	return &f, nil
}

// EncodePredictor serializes a trained predictor for a ShardRequest (nil
// predictors encode as nil).
func EncodePredictor(p *core.Predictor) (json.RawMessage, error) {
	if p == nil {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := core.SavePredictor(&buf, p); err != nil {
		return nil, fmt.Errorf("wire: encode predictor: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodePredictor loads a ShardRequest predictor (empty input decodes as
// nil).
func DecodePredictor(raw json.RawMessage) (*core.Predictor, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	p, err := core.LoadPredictor(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("wire: decode predictor: %w", err)
	}
	return p, nil
}

// Materialize rebuilds a runnable fleet.Job from its serializable spec,
// resolving the workload by name, the governor against the device's OPP
// table, and a "usta" controller against the shard's predictor. It mirrors
// exactly what the scenario expander wires into the in-process Job, so a
// worker-built job runs the same physics the local runner would.
func Materialize(spec fleet.JobSpec, pred *core.Predictor) (fleet.Job, error) {
	if err := spec.Validate(); err != nil {
		return fleet.Job{}, err
	}
	wl := workload.ByName(spec.Workload.Name, spec.Workload.Seed)
	job := fleet.Job{
		Name:        spec.Name,
		User:        spec.User,
		Workload:    wl,
		Device:      spec.Device,
		DurSec:      spec.DurSec,
		DeadlineSec: spec.DeadlineSec,
		TraceFree:   spec.TraceFree,
		Seed:        spec.Seed,
	}
	if spec.Governor != "" {
		devCfg := device.DefaultConfig()
		if spec.Device != nil {
			devCfg = *spec.Device
		}
		freqs := make([]float64, len(devCfg.SoC.OPPs))
		for i, o := range devCfg.SoC.OPPs {
			freqs[i] = o.FreqMHz
		}
		factory, err := fleet.GovernorFactory(spec.Governor, freqs)
		if err != nil {
			return fleet.Job{}, fmt.Errorf("fleet: job spec %d: %w", spec.Index, err)
		}
		job.Governor = factory
	}
	if spec.Controller == "usta" {
		if pred == nil {
			return fleet.Job{}, fmt.Errorf("fleet: job spec %d uses a usta controller but the shard request carries no predictor", spec.Index)
		}
		limit := spec.LimitC
		job.Controller = func(users.User) device.Controller {
			return core.NewUSTA(pred, limit)
		}
	}
	return job, nil
}

// SampleWriter returns a sink.Remote that forwards every sample as a
// TypeSample frame through write, mapping the local runner's job tags to
// global indices via toGlobal. write must serialize access to the
// underlying stream (the worker shares it with result frames).
func SampleWriter(write func(*Frame) error, toGlobal func(sink.JobID) int) *sink.Remote {
	return sink.NewRemote(func(id sink.JobID, s device.Sample) error {
		return write(&Frame{V: Version, Type: TypeSample,
			Sample: &SampleFrame{Job: toGlobal(id), Sample: s}})
	})
}
