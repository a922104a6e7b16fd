package main

import (
	"fmt"

	"fixture/p"
)

func main() { fmt.Println(p.Run(p.DefaultConfig(4), p.Spec{Name: "tool"})) }
