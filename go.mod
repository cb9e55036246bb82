module gamma

go 1.23
