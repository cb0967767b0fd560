// Package other is linked by no binary; its tests use a helper of lib.
package other
