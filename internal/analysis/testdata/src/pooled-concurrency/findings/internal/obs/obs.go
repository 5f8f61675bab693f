// Package obs delivers events synchronously; only internal/par may
// start goroutines, so an asynchronous stream here is a finding.
package obs

func Stream(events <-chan int, sink func(int)) {
	go func() { // want `raw go statement outside internal/par`
		for e := range events {
			sink(e)
		}
	}()
}
