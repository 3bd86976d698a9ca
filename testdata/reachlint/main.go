// Command reachfix is the fixture TestReachabilityLintFixture walks: a
// module with one declaration and one struct field of each kind the
// reachability lint must flag or must leave alone.
package main

import (
	"fmt"
	"os"

	"reachfix/lib"
)

func main() {
	fmt.Println(lib.Used(), lib.Area(lib.Square{Side: 2}), lib.Celsius(21))
	if err := lib.Report(os.Stdout); err != nil {
		panic(err)
	}
}
