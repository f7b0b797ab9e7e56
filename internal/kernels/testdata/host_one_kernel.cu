__global__ void scale(float* a, float f, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        a[i] = a[i] * f;
    }
}

__global__ void fill(int* out, int n) {
    int i = blockIdx.y * gridDim.x + blockIdx.x;
    if (i < n) {
        out[i] = gridDim.y - i;
    }
}

void host(float* a, int* out, int n, int rounds) {
    flep_intercept("scale", n / 256, 256, 0, a, 2.0, n);
    for (int r = 0; r < rounds; ++r) {
        if (r % 2 == 0) {
            flep_intercept("scale", n / 256, 256, 1024, a, 0.5, n);
        } else if (r == 1) {
            fill<<<n, 32>>>(out, n);
        } else {
            while (n > 0) {
                fill<<<n, 64, 16>>>(out, n - r);
                n = n - 1;
            }
        }
    }
}

__device__ void scale_flep_task(float* a, float f, int n, int flep_bx, int flep_by, int flep_grid_x, int flep_grid_y) {
    int i = flep_bx * blockDim.x + threadIdx.x;
    if (i < n) {
        a[i] = a[i] * f;
    }
}

__global__ void scale_flep(float* a, float f, int n, volatile unsigned int* flep_preempt, int* flep_next_task, int flep_num_tasks, int flep_grid_x, int flep_grid_y, int flep_L) {
    __shared__ int flep_task;
    __shared__ int flep_stop;
    while (1) {
        if (threadIdx.x == 0 && threadIdx.y == 0) {
            if (*flep_preempt != 0) {
                flep_stop = 1;
            } else {
                flep_stop = 0;
            }
        }
        __syncthreads();
        if (flep_stop == 1) {
            return;
        }
        for (int flep_i = 0; flep_i < flep_L; ++flep_i) {
            if (threadIdx.x == 0 && threadIdx.y == 0) {
                flep_task = atomicAdd(flep_next_task, 1);
            }
            __syncthreads();
            if (flep_task >= flep_num_tasks) {
                return;
            }
            scale_flep_task(a, f, n, flep_task % flep_grid_x, flep_task / flep_grid_x, flep_grid_x, flep_grid_y);
            __syncthreads();
        }
    }
}
