// Command app is the fixture's only binary: whatever it reaches is live,
// everything else in the module is a deadcode finding.
package main

import (
	"fmt"

	"sora/internal/lib"
)

var handlers []func() int

func register(fn func() int) { handlers = append(handlers, fn) }

func init() {
	register(lib.One) // a function value registered from init
}

func main() {
	run := func() int { return lib.ViaClosure() } // a call made only inside a closure
	var s lib.Stack[int]
	s.Push(lib.Max(2, 3)) // a generic function and a method of a generic type
	fmt.Println(run(), lib.Wrapped{}.Hello(), lib.Name{S: "x"}, s.Len(), lib.Kept())
	for _, h := range handlers {
		fmt.Println(h())
	}
}
