__global__ void pl(float* arrayX, float* arrayY, float* likelihood, float* weights, int numParticles) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < numParticles) {
        float x = arrayX[i];
        float y = arrayY[i];
        float lk = likelihood[i];
        float dist = x * x + y * y;
        float prob = expf(-dist / 2.0) * 0.3989422804014327;
        float w = weights[i] * prob * (1.0 + lk * 0.01);
        if (w < 1e-12) {
            w = 1e-12;
        }
        weights[i] = w;
    }
}

__device__ void pl_flep_task(float* arrayX, float* arrayY, float* likelihood, float* weights, int numParticles, int flep_bx, int flep_by, int flep_grid_x, int flep_grid_y) {
    int i = flep_bx * blockDim.x + threadIdx.x;
    if (i < numParticles) {
        float x = arrayX[i];
        float y = arrayY[i];
        float lk = likelihood[i];
        float dist = x * x + y * y;
        float prob = expf(-dist / 2.0) * 0.3989422804014327;
        float w = weights[i] * prob * (1.0 + lk * 0.01);
        if (w < 1e-12) {
            w = 1e-12;
        }
        weights[i] = w;
    }
}

__global__ void pl_flep(float* arrayX, float* arrayY, float* likelihood, float* weights, int numParticles, volatile unsigned int* flep_preempt, int* flep_next_task, int flep_num_tasks, int flep_grid_x, int flep_grid_y, int flep_L) {
    __shared__ int flep_task;
    __shared__ int flep_stop;
    while (1) {
        if (threadIdx.x == 0 && threadIdx.y == 0) {
            if (__smid() < (int)*flep_preempt) {
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
            pl_flep_task(arrayX, arrayY, likelihood, weights, numParticles, flep_task % flep_grid_x, flep_task / flep_grid_x, flep_grid_x, flep_grid_y);
            __syncthreads();
        }
    }
}
