// Command app uses package a.
package main

import (
	"encoding/json"
	"fmt"

	"example.com/m/internal/a"
)

func main() {
	a.Used{}.Close()
	_ = a.Other{}
	fmt.Println(a.Named{})
	var c a.Config
	_ = json.Unmarshal([]byte("3"), &c)
	a.NewRunner().Run()
	fmt.Println(a.Wrap(1).Get(), c.N)
	tl := a.NewTally(1)
	tl.Add(2)
	value, name := tl.Funcs()
	fmt.Println(value(), name(), a.Count(0, 0))
}
