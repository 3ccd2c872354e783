package api

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
)

// ErrorCode is the stable, machine-readable half of every non-2xx
// response. Codes are part of the wire contract: clients switch on
// them, so existing values never change meaning and new failure modes
// get new codes. The retryable subset (see Error.Retryable) always
// ships with a Retry-After header and a RetryAfterMS hint.
type ErrorCode string

const (
	// CodeBadRequest marks a malformed or self-contradictory request
	// body or parameter (HTTP 400).
	CodeBadRequest ErrorCode = "bad_request"
	// CodeInvalidName rejects a graph name that does not round-trip URL
	// escaping (HTTP 400). Path-derived names are load-bearing for
	// cluster routing, so names containing path separators, percent
	// escapes or control bytes are refused at the router.
	CodeInvalidName ErrorCode = "invalid_name"
	// CodeNotFound marks an unknown graph, event, monitor or job
	// (HTTP 404).
	CodeNotFound ErrorCode = "not_found"
	// CodeConflict marks a name collision on registration (HTTP 409).
	CodeConflict ErrorCode = "conflict"
	// CodeUnprocessable marks a well-formed request the current state
	// cannot satisfy, e.g. screening with fewer than two events
	// (HTTP 422).
	CodeUnprocessable ErrorCode = "unprocessable"
	// CodeReadOnly marks a mutation sent to a read replica (HTTP 403).
	CodeReadOnly ErrorCode = "read_only"
	// CodeTenantQuota marks a per-tenant token bucket running empty
	// (HTTP 429). Retryable.
	CodeTenantQuota ErrorCode = "tenant_quota"
	// CodeOverloadedFG marks the foreground concurrency gate at its
	// bound (HTTP 503). Retryable.
	CodeOverloadedFG ErrorCode = "overloaded_fg"
	// CodeOverloadedBG marks the background gate at its bound
	// (HTTP 503). Retryable.
	CodeOverloadedBG ErrorCode = "overloaded_bg"
	// CodeDraining marks a server in graceful shutdown (HTTP 503).
	// Retryable — against another replica.
	CodeDraining ErrorCode = "draining"
	// CodeStaleEpoch marks a min_epoch freshness demand the serving
	// node has not reached (HTTP 503). Retryable.
	CodeStaleEpoch ErrorCode = "stale_epoch"
	// CodeTimeout marks a request whose propagated deadline fired
	// (HTTP 504). Retryable.
	CodeTimeout ErrorCode = "timeout"
	// CodeClientClosed marks a request abandoned by its own client
	// (HTTP 499, best-effort — the connection is usually gone).
	CodeClientClosed ErrorCode = "client_closed"
	// CodeNoOwner marks a cluster request whose graph's owner (and
	// every read-eligible replica, for reads) is unreachable
	// (HTTP 503). Retryable — ownership moves as members recover.
	CodeNoOwner ErrorCode = "no_owner"
	// CodeUnavailable marks a dependency failure: durability layer
	// down, replication source unreachable, proxy hop failed
	// (HTTP 503). Retryable.
	CodeUnavailable ErrorCode = "unavailable"
	// CodeInternal marks an unexpected server-side failure (HTTP 500).
	CodeInternal ErrorCode = "internal"
)

// Error is the unified error envelope: the one body shape every non-2xx
// tescd response carries, whether it came from a handler, the admission
// chain, or a cluster coordinator proxying on a client's behalf.
type Error struct {
	// Code is the stable machine-readable failure class.
	Code ErrorCode `json:"code"`
	// Reason is the human-readable diagnostic. Its text is not part of
	// the contract; parse Code, print Reason.
	Reason string `json:"reason"`
	// RetryAfterMS, when non-zero, is the suggested retry delay in
	// milliseconds, mirroring the Retry-After header at sub-second
	// resolution. Zero means the failure is not retryable as-is.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`

	// Status is the HTTP status code the envelope arrived with. It is
	// not serialized — the transport already carries it — but typed
	// clients fill it so callers can branch without re-reading headers.
	Status int `json:"-"`
}

// Error implements the error interface, so *Error flows through
// error-returning client APIs.
func (e *Error) Error() string {
	if e.RetryAfterMS > 0 {
		return fmt.Sprintf("%s: %s (retry after %dms)", e.Code, e.Reason, e.RetryAfterMS)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Reason)
}

// Retryable reports whether the failure class is transient: the same
// request may succeed if repeated after RetryAfterMS.
func (e *Error) Retryable() bool {
	switch e.Code {
	case CodeTenantQuota, CodeOverloadedFG, CodeOverloadedBG, CodeDraining,
		CodeStaleEpoch, CodeTimeout, CodeNoOwner, CodeUnavailable:
		return true
	}
	return false
}

// StatusOf maps an error code to its canonical HTTP status. Handlers
// use it so a code can never ship under a surprising status.
func StatusOf(code ErrorCode) int {
	switch code {
	case CodeBadRequest, CodeInvalidName:
		return 400
	case CodeReadOnly:
		return 403
	case CodeNotFound:
		return 404
	case CodeConflict:
		return 409
	case CodeUnprocessable:
		return 422
	case CodeTenantQuota:
		return 429
	case CodeClientClosed:
		return 499
	case CodeOverloadedFG, CodeOverloadedBG, CodeDraining, CodeStaleEpoch, CodeNoOwner, CodeUnavailable:
		return 503
	case CodeTimeout:
		return 504
	default:
		return 500
	}
}

// WriteJSON writes v as a JSON response body under the given status.
// Nodes and coordinators both answer through it, so one request gets
// the same bytes from either.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the envelope for a non-retryable failure under the
// code's canonical status. Every non-2xx response goes through here or
// WriteRetryable, so there is exactly one error body shape on the wire.
func WriteError(w http.ResponseWriter, code ErrorCode, format string, args ...any) {
	WriteJSON(w, StatusOf(code), &Error{Code: code, Reason: fmt.Sprintf(format, args...)})
}

// WriteRetryable writes the envelope for a transient failure: the
// code's canonical status, a Retry-After header, and the same delay
// mirrored in retry_after_ms (the header only has 1-second resolution),
// so a client always finds a retry hint.
func WriteRetryable(w http.ResponseWriter, retryAfter time.Duration, code ErrorCode, format string, args ...any) {
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	secs := int64(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	ms := retryAfter.Milliseconds()
	if ms < 1 {
		// Sub-millisecond waits (a nearly-full token bucket) truncate to
		// zero, which clients would read as "retry immediately" — the
		// opposite of the throttle's intent.
		ms = 1
	}
	WriteJSON(w, StatusOf(code), &Error{Code: code, Reason: fmt.Sprintf(format, args...), RetryAfterMS: ms})
}
