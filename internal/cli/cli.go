// Package cli is the shared command-line scaffolding of the cmd/
// binaries.  Every command implements
//
//	run(args []string, stdout, stderr io.Writer) error
//
// and hands it to Main, which maps the error to the conventional exit
// status: 0 for success (including -h), 2 for command-line mistakes, 1
// for everything else.  Keeping main() a one-liner makes the whole
// command testable in-process (see the cmd/ *_test.go files).
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// UsageError marks a command-line mistake; ExitCode maps it to 2.
type UsageError struct {
	Err error
	// Printed records that the flag package already reported the error
	// on stderr, so Main must not repeat it.
	Printed bool
}

func (e *UsageError) Error() string { return e.Err.Error() }
func (e *UsageError) Unwrap() error { return e.Err }

// Usagef builds a UsageError, for a command's own argument validation.
func Usagef(format string, args ...any) error {
	return &UsageError{Err: fmt.Errorf(format, args...)}
}

// Parse runs fs on args.  -h/-help surfaces as flag.ErrHelp (exit 0,
// usage already printed); any other parse failure becomes a UsageError
// that the flag package has already reported.
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return flag.ErrHelp
		}
		return &UsageError{Err: err, Printed: true}
	}
	return nil
}

// ErrSignaled marks the clean, signal-triggered shutdown of a
// long-running command (SIGINT/SIGTERM against a daemon).  ExitCode
// maps it to 0: asking a server to stop is not a failure.
var ErrSignaled = errors.New("shut down by signal")

// Serve runs a long-running command body under a context that is
// canceled when a shutdown signal arrives (SIGINT and SIGTERM by
// default; tests pass their own).  The body should drain its work when
// the context ends and return nil; a nil or context.Canceled result
// after a signal becomes ErrSignaled, so Main exits 0 on a clean
// drain.  Any other error — and any error without a signal — passes
// through unchanged.
func Serve(body func(ctx context.Context) error, sigs ...os.Signal) error {
	if len(sigs) == 0 {
		sigs = []os.Signal{os.Interrupt, syscall.SIGTERM}
	}
	ctx, stop := signal.NotifyContext(context.Background(), sigs...)
	defer stop()
	err := body(ctx)
	if ctx.Err() != nil && (err == nil || errors.Is(err, context.Canceled)) {
		return ErrSignaled
	}
	return err
}

// Limits on every HTTP listener the commands open.  A client has
// ReadHeaderTimeout to send a request's header, an idle keep-alive
// connection is closed after IdleTimeout (longer than net/http's
// 90-second client idle timeout, so clients close first), and a header
// may not exceed MaxHeaderBytes.  Request bodies are bounded per route.
const (
	ReadHeaderTimeout = 5 * time.Second
	IdleTimeout       = 2 * time.Minute
	MaxHeaderBytes    = 64 << 10
)

// NewHTTPServer returns an http.Server for h with the limits above, so
// a client that stalls mid-header or parks idle connections cannot hold
// a connection and its goroutine forever.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		IdleTimeout:       IdleTimeout,
		MaxHeaderBytes:    MaxHeaderBytes,
	}
}

// ExitCode maps a run error to the command's exit status.
func ExitCode(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp), errors.Is(err, ErrSignaled):
		return 0
	case errors.As(err, new(*UsageError)):
		return 2
	default:
		return 1
	}
}

// Main executes a command body against the process streams and exits
// with the conventional status, reporting the error as "name: err"
// unless it was already printed during flag parsing.
func Main(name string, run func(args []string, stdout, stderr io.Writer) error) {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	var ue *UsageError
	if err != nil && !errors.Is(err, flag.ErrHelp) && !errors.Is(err, ErrSignaled) &&
		!(errors.As(err, &ue) && ue.Printed) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	}
	os.Exit(ExitCode(err))
}
