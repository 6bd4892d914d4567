// Package cli holds the exit-status convention the cmd/ drivers
// share: 0 on success or -h, 2 on a command-line mistake, 1 on any
// other error, which goes to stderr after the command's name.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
)

// ErrUsage marks a command-line mistake.
var ErrUsage = errors.New("usage")

// ExitCode returns the named command's mapping from the error its run
// returned to its exit status; it reports a non-nil error on stderr.
func ExitCode(name string) func(err error, stderr io.Writer) int {
	return func(err error, stderr io.Writer) int {
		if err == nil || errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		if errors.Is(err, ErrUsage) {
			return 2
		}
		return 1
	}
}
