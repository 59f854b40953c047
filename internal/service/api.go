// Package service implements phased, the phase-marker analysis service: a
// long-running HTTP server exposing the paper's pipeline stages — profile
// (call-loop graph construction), select (marker selection), segment
// (marker- or fixed-cut tracing), and cluster (SimPoint classification) —
// to many concurrent clients.
//
// Every request has a canonical form (defaults applied, fields in declared
// order) whose SHA-256 digest content-addresses the response in an
// internal/store artifact store: identical requests — concurrent, repeated,
// or issued to a later process over the same store directory — compute
// exactly once. In-process, expensive intermediate artifacts (compiled
// programs, profiled graphs, marker sets, traced executions) come from
// internal/artifact, which memoizes them with the same singleflight
// discipline (store.Memo), so e.g. a thousand cluster requests differing
// only in seed share one traced execution.
//
// Admission control bounds concurrent work: requests past the executing
// and queued limits are rejected with 429 + Retry-After instead of piling
// onto the process, and a draining server (SIGTERM) answers 503 while
// in-flight work finishes. See DESIGN.md §"phased" for the full layout.
package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"phasemark/internal/store"
	"phasemark/internal/workloads"
)

// Endpoint paths. The canonical key domain is the endpoint plus
// apiVersion, so a format change shifts every address instead of serving
// stale artifacts.
const (
	EndpointProfile = "/v1/profile"
	EndpointSelect  = "/v1/select"
	EndpointSegment = "/v1/segment"
	EndpointCluster = "/v1/cluster"
	EndpointBatch   = "/v1/batch"
)

// apiVersion tags the canonical request encoding. Bump it whenever a
// request or response schema changes shape so old stored artifacts are
// simply never addressed again. (v2: SelectSpec grew the minimize knob.)
const apiVersion = "phased/v2"

// Default knobs, mirroring the experiment suite (internal/experiments
// table.go) so service results line up with the spexp figures.
const (
	// DefaultILower is the minimum average interval size for selection
	// (§5.4, scaled as in the experiments).
	DefaultILower = 100_000
	// DefaultKMax / DefaultDims / DefaultRestarts / DefaultMaxIters are
	// the SimPoint options the figure harness passes to Classify.
	DefaultKMax     = 10
	DefaultDims     = 15
	DefaultRestarts = 2
	DefaultMaxIters = 40
	// DefaultSeed seeds projection and clustering when the request leaves
	// it zero.
	DefaultSeed = 1
)

// Inputs name a workload's profiling input.
const (
	InputTrain = "train"
	InputRef   = "ref"
)

// RequestError marks a malformed or unsatisfiable request (HTTP 400), as
// opposed to a pipeline failure (HTTP 500).
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

func reqErrf(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// checkWorkload validates the workload name and input selector.
func checkWorkload(name, input string) error {
	if name == "" {
		return reqErrf("missing workload")
	}
	if _, err := workloads.ByName(name); err != nil {
		return reqErrf("unknown workload %q", name)
	}
	if input != InputTrain && input != InputRef {
		return reqErrf("input must be %q or %q, not %q", InputTrain, InputRef, input)
	}
	return nil
}

// SelectSpec is the marker-selection knob set, the canonical form of
// core.SelectOptions. Field order is the canonical encoding order — do not
// reorder without bumping apiVersion.
type SelectSpec struct {
	ILower    uint64  `json:"ilower"`
	MaxLimit  uint64  `json:"max_limit"`
	ProcsOnly bool    `json:"procs_only"`
	CovScale  float64 `json:"cov_scale"`
	MinCount  uint64  `json:"min_count"`
	// Minimize runs the minimum-cost placement pass (core.MinimizeMarkers)
	// on the selected set. Part of the canonical encoding, so minimized and
	// full runs address different artifacts.
	Minimize bool `json:"minimize"`
}

// canon applies selection defaults and rejects values with no canonical
// JSON encoding (NaN/Inf never canonicalize) or no meaning (negative
// scale).
func (s SelectSpec) canon() (SelectSpec, error) {
	if s.ILower == 0 {
		s.ILower = DefaultILower
	}
	if math.IsNaN(s.CovScale) || math.IsInf(s.CovScale, 0) || s.CovScale < 0 {
		return s, reqErrf("cov_scale must be a non-negative finite number")
	}
	return s, nil
}

// ProfileRequest asks for the call-loop graph of one profiled execution.
type ProfileRequest struct {
	Workload string `json:"workload"`
	Input    string `json:"input"` // "train" (default) or "ref"
}

// Canon returns the fully defaulted, validated request.
func (r ProfileRequest) Canon() (ProfileRequest, error) {
	if r.Input == "" {
		r.Input = InputTrain
	}
	if err := checkWorkload(r.Workload, r.Input); err != nil {
		return r, err
	}
	return r, nil
}

// SelectRequest asks for a marker set selected on a profiled graph.
type SelectRequest struct {
	Workload string     `json:"workload"`
	Input    string     `json:"input"` // profile input: "train" (default) or "ref"
	Options  SelectSpec `json:"options"`
}

// Canon returns the fully defaulted, validated request.
func (r SelectRequest) Canon() (SelectRequest, error) {
	if r.Input == "" {
		r.Input = InputTrain
	}
	if err := checkWorkload(r.Workload, r.Input); err != nil {
		return r, err
	}
	opts, err := r.Options.canon()
	if err != nil {
		return r, err
	}
	r.Options = opts
	if r.Options.MaxLimit != 0 && r.Options.MaxLimit < r.Options.ILower {
		return r, reqErrf("max_limit %d below ilower %d", r.Options.MaxLimit, r.Options.ILower)
	}
	return r, nil
}

// SegmentRequest asks for the ref execution of a workload segmented into
// intervals: cut every FixedLen instructions, or cut at the firings of a
// marker set selected per Select. Exactly one of the two must be given.
type SegmentRequest struct {
	Workload string         `json:"workload"`
	FixedLen uint64         `json:"fixed_len"`
	Select   *SelectRequest `json:"select"`
}

// Canon returns the fully defaulted, validated request.
func (r SegmentRequest) Canon() (SegmentRequest, error) {
	if (r.FixedLen == 0) == (r.Select == nil) {
		return r, reqErrf("need exactly one of fixed_len or select")
	}
	if r.Select != nil {
		sel := *r.Select
		if sel.Workload == "" {
			sel.Workload = r.Workload
		}
		if sel.Workload != r.Workload {
			return r, reqErrf("select.workload %q differs from workload %q", sel.Workload, r.Workload)
		}
		c, err := sel.Canon()
		if err != nil {
			return r, err
		}
		r.Select = &c
	}
	if err := checkWorkload(r.Workload, InputRef); err != nil {
		return r, err
	}
	return r, nil
}

// ClusterRequest asks for SimPoint phase classification over a segmented
// execution's interval BBVs.
type ClusterRequest struct {
	Segment  SegmentRequest `json:"segment"`
	KMax     int            `json:"kmax"`
	Dims     int            `json:"dims"`
	Seed     uint64         `json:"seed"`
	Restarts int            `json:"restarts"`
	MaxIters int            `json:"max_iters"`
}

// Canon returns the fully defaulted, validated request.
func (r ClusterRequest) Canon() (ClusterRequest, error) {
	seg, err := r.Segment.Canon()
	if err != nil {
		return r, err
	}
	r.Segment = seg
	if r.KMax < 0 || r.Dims < 0 || r.Restarts < 0 || r.MaxIters < 0 {
		return r, reqErrf("kmax, dims, restarts and max_iters must be non-negative")
	}
	if r.KMax == 0 {
		r.KMax = DefaultKMax
	}
	if r.Dims == 0 {
		r.Dims = DefaultDims
	}
	if r.Seed == 0 {
		r.Seed = DefaultSeed
	}
	if r.Restarts == 0 {
		r.Restarts = DefaultRestarts
	}
	if r.MaxIters == 0 {
		r.MaxIters = DefaultMaxIters
	}
	return r, nil
}

// mustJSON encodes a canonical request. Canonical structs contain no maps
// and no unsupported types, so Marshal cannot fail; the panic guards
// against a refactor breaking that property silently.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("service: canonical encoding failed: %v", err))
	}
	return b
}

// Key content-addresses the canonical request. Call Canon first: keys of
// non-canonical requests would alias defaults to distinct artifacts.
func (r ProfileRequest) Key() store.Key {
	return store.KeyOf(apiVersion+EndpointProfile, mustJSON(r))
}

// Key content-addresses the canonical request.
func (r SelectRequest) Key() store.Key {
	return store.KeyOf(apiVersion+EndpointSelect, mustJSON(r))
}

// Key content-addresses the canonical request.
func (r SegmentRequest) Key() store.Key {
	return store.KeyOf(apiVersion+EndpointSegment, mustJSON(r))
}

// Key content-addresses the canonical request.
func (r ClusterRequest) Key() store.Key {
	return store.KeyOf(apiVersion+EndpointCluster, mustJSON(r))
}

// maxBodyBytes bounds request bodies; the API's requests are small
// structured descriptions, never bulk data.
const maxBodyBytes = 1 << 20

// decodeStrict decodes one JSON value, rejecting unknown fields, trailing
// data, and oversized bodies. Every decode failure is a RequestError
// (HTTP 400).
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return reqErrf("bad request body: %v", err)
	}
	if dec.More() {
		return reqErrf("bad request body: trailing data after JSON value")
	}
	return nil
}

// DecodeProfileRequest decodes and canonicalizes a profile request body.
func DecodeProfileRequest(r io.Reader) (ProfileRequest, error) {
	var req ProfileRequest
	if err := decodeStrict(r, &req); err != nil {
		return req, err
	}
	return req.Canon()
}

// DecodeSelectRequest decodes and canonicalizes a select request body.
func DecodeSelectRequest(r io.Reader) (SelectRequest, error) {
	var req SelectRequest
	if err := decodeStrict(r, &req); err != nil {
		return req, err
	}
	return req.Canon()
}

// DecodeSegmentRequest decodes and canonicalizes a segment request body.
func DecodeSegmentRequest(r io.Reader) (SegmentRequest, error) {
	var req SegmentRequest
	if err := decodeStrict(r, &req); err != nil {
		return req, err
	}
	return req.Canon()
}

// DecodeClusterRequest decodes and canonicalizes a cluster request body.
func DecodeClusterRequest(r io.Reader) (ClusterRequest, error) {
	var req ClusterRequest
	if err := decodeStrict(r, &req); err != nil {
		return req, err
	}
	return req.Canon()
}
