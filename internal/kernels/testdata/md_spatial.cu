__global__ void md(float* posX, float* posY, float* posZ, float* forceX, float* forceY, float* forceZ, int* neighbors, int maxNeighbors, int nAtoms, float cutsq, float lj1, float lj2) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < nAtoms) {
        float px = posX[i];
        float py = posY[i];
        float pz = posZ[i];
        float fx = 0.0;
        float fy = 0.0;
        float fz = 0.0;
        for (int j = 0; j < maxNeighbors; ++j) {
            int jidx = neighbors[i * maxNeighbors + j];
            float dx = px - posX[jidx];
            float dy = py - posY[jidx];
            float dz = pz - posZ[jidx];
            float r2 = dx * dx + dy * dy + dz * dz;
            if (r2 < cutsq) {
                if (r2 > 1e-06) {
                    float r2inv = 1.0 / r2;
                    float r6inv = r2inv * r2inv * r2inv;
                    float force = r2inv * r6inv * (lj1 * r6inv - lj2);
                    fx += dx * force;
                    fy += dy * force;
                    fz += dz * force;
                }
            }
        }
        forceX[i] = fx;
        forceY[i] = fy;
        forceZ[i] = fz;
    }
}

__device__ void md_flep_task(float* posX, float* posY, float* posZ, float* forceX, float* forceY, float* forceZ, int* neighbors, int maxNeighbors, int nAtoms, float cutsq, float lj1, float lj2, int flep_bx, int flep_by, int flep_grid_x, int flep_grid_y) {
    int i = flep_bx * blockDim.x + threadIdx.x;
    if (i < nAtoms) {
        float px = posX[i];
        float py = posY[i];
        float pz = posZ[i];
        float fx = 0.0;
        float fy = 0.0;
        float fz = 0.0;
        for (int j = 0; j < maxNeighbors; ++j) {
            int jidx = neighbors[i * maxNeighbors + j];
            float dx = px - posX[jidx];
            float dy = py - posY[jidx];
            float dz = pz - posZ[jidx];
            float r2 = dx * dx + dy * dy + dz * dz;
            if (r2 < cutsq) {
                if (r2 > 1e-06) {
                    float r2inv = 1.0 / r2;
                    float r6inv = r2inv * r2inv * r2inv;
                    float force = r2inv * r6inv * (lj1 * r6inv - lj2);
                    fx += dx * force;
                    fy += dy * force;
                    fz += dz * force;
                }
            }
        }
        forceX[i] = fx;
        forceY[i] = fy;
        forceZ[i] = fz;
    }
}

__global__ void md_flep(float* posX, float* posY, float* posZ, float* forceX, float* forceY, float* forceZ, int* neighbors, int maxNeighbors, int nAtoms, float cutsq, float lj1, float lj2, volatile unsigned int* flep_preempt, int* flep_next_task, int flep_num_tasks, int flep_grid_x, int flep_grid_y, int flep_L) {
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
            md_flep_task(posX, posY, posZ, forceX, forceY, forceZ, neighbors, maxNeighbors, nAtoms, cutsq, lj1, lj2, flep_task % flep_grid_x, flep_task / flep_grid_x, flep_grid_x, flep_grid_y);
            __syncthreads();
        }
    }
}
