// Command benchroot stands in for the nested bench/ module: a second load
// root whose calls keep library names alive.
package main

import (
	"a"
	"fmt"
)

// unused is in package main, which the pass never judges.
func unused() {}

func main() {
	s := &a.Sweeper{Period: 1}
	a.Drive(s)
	fmt.Println(s, a.OnlyBench(), a.Default, a.TooBig)
	a.Adopted()
	var sink any = &a.Sink{}
	sink.(interface{ Configure(int, string) }).Configure(1, "x")
}
