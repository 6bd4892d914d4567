// Quickstart: the omp tasking runtime in ~40 lines — a parallel
// region, a worksharing loop, explicit tasks with a taskwait, and the
// region statistics. This is the programming model every BOTS
// benchmark in this repository is written against.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sync/atomic"

	"bots/internal/omp"
)

// countPrimes splits [2, limit) across tasks created inside an omp
// for loop — the same "tasks inside worksharing" pattern the BOTS
// Alignment benchmark uses.
func countPrimes(limit, threads int) (int64, *omp.Stats) {
	var primes atomic.Int64
	const chunk = 1000
	stats := omp.Parallel(threads, func(c *omp.Context) {
		c.For(0, (limit+chunk-1)/chunk, func(c *omp.Context, block int) {
			lo := block * chunk
			if lo < 2 {
				lo = 2
			}
			hi := (block + 1) * chunk
			if hi > limit {
				hi = limit
			}
			c.Task(func(c *omp.Context) {
				var found int64
				for n := lo; n < hi; n++ {
					isPrime := true
					for d := 2; d*d <= n; d++ {
						if n%d == 0 {
							isPrime = false
							break
						}
					}
					if isPrime {
						found++
					}
				}
				primes.Add(found)
				c.AddWork(int64(hi - lo))
			})
		}, omp.WithSchedule(omp.Dynamic, 1))
	})
	return primes.Load(), stats
}

// parallelFib is the canonical recursive-task pattern: two child
// tasks and a taskwait, with a manual depth cut-off.
func parallelFib(c *omp.Context, n, depth int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	if depth >= 8 { // manual cut-off: plain recursion below
		return parallelFib(c, n-1, depth) + parallelFib(c, n-2, depth)
	}
	var a, b uint64
	c.Task(func(c *omp.Context) { a = parallelFib(c, n-1, depth+1) })
	c.Task(func(c *omp.Context) { b = parallelFib(c, n-2, depth+1) })
	c.Taskwait()
	return a + b
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the example; it takes no flags.
func run(args []string, stdout io.Writer) error {
	if err := flag.NewFlagSet("quickstart", flag.ContinueOnError).Parse(args); err != nil {
		return err
	}
	primes, st := countPrimes(200000, 4)
	fmt.Fprintf(stdout, "primes below 200000: %d\n", primes)
	fmt.Fprintf(stdout, "runtime stats: %s\n\n", st)

	var fib uint64
	st = omp.Parallel(4, func(c *omp.Context) {
		c.Single(func(c *omp.Context) {
			fib = parallelFib(c, 30, 0)
		})
	})
	fmt.Fprintf(stdout, "fib(30) = %d\n", fib)
	fmt.Fprintf(stdout, "runtime stats: %s\n", st)
	return nil
}
