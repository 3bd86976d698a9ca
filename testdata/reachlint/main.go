// Command reachfix is the fixture TestReachabilityLintFixture walks: a
// module with one declaration of each kind the reachability lint must
// flag or must leave alone.
package main

import (
	"fmt"

	"reachfix/lib"
)

func main() {
	fmt.Println(lib.Used(), lib.Area(lib.Square{Side: 2}), lib.Celsius(21))
}
