module gist/benchmark

go 1.22

require gist v0.0.0

replace gist => ../
