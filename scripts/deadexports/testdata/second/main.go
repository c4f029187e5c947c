// Command second uses package a from another module.
package main

import "example.com/m/internal/a"

func main() { a.FromSecond() }
