__device__ float cfd_pressure(float density, float mx, float my, float mz, float energy, float gamma) {
    float v2 = (mx * mx + my * my + mz * mz) / (density * density);
    return (gamma - 1.0) * (energy - 0.5 * density * v2);
}

__device__ float cfd_speed_of_sound(float pressure, float density, float gamma) {
    return sqrtf(gamma * pressure / density);
}

__global__ void cfd(float* density, float* momX, float* momY, float* momZ, float* energy, int* neighbors, float* normalsX, float* normalsY, float* normalsZ, float* fluxDensity, float* fluxMomX, float* fluxMomY, float* fluxMomZ, float* fluxEnergy, int nCells, float gamma, float smoothing) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < nCells) {
        float di = density[i];
        float mxi = momX[i];
        float myi = momY[i];
        float mzi = momZ[i];
        float ei = energy[i];
        float vxi = mxi / di;
        float vyi = myi / di;
        float vzi = mzi / di;
        float pi = cfd_pressure(di, mxi, myi, mzi, ei, gamma);
        float ci = cfd_speed_of_sound(pi, di, gamma);
        float speedI = sqrtf(vxi * vxi + vyi * vyi + vzi * vzi);
        float fluxD = 0.0;
        float fluxMx = 0.0;
        float fluxMy = 0.0;
        float fluxMz = 0.0;
        float fluxE = 0.0;
        for (int j = 0; j < 4; ++j) {
            int nb = neighbors[i * 4 + j];
            float nx = normalsX[i * 4 + j];
            float ny = normalsY[i * 4 + j];
            float nz = normalsZ[i * 4 + j];
            if (nb >= 0) {
                float dn = density[nb];
                float mxn = momX[nb];
                float myn = momY[nb];
                float mzn = momZ[nb];
                float en = energy[nb];
                float vxn = mxn / dn;
                float vyn = myn / dn;
                float vzn = mzn / dn;
                float pn = cfd_pressure(dn, mxn, myn, mzn, en, gamma);
                float cn = cfd_speed_of_sound(pn, dn, gamma);
                float speedN = sqrtf(vxn * vxn + vyn * vyn + vzn * vzn);
                float factor = 0.5 * smoothing * (ci + cn + speedI + speedN);
                fluxD += factor * (di - dn);
                fluxMx += factor * (mxi - mxn);
                fluxMy += factor * (myi - myn);
                fluxMz += factor * (mzi - mzn);
                fluxE += factor * (ei - en);
                float avgVx = 0.5 * (vxi + vxn);
                float avgVy = 0.5 * (vyi + vyn);
                float avgVz = 0.5 * (vzi + vzn);
                float avgP = 0.5 * (pi + pn);
                float avgD = 0.5 * (di + dn);
                float avgMx = avgD * avgVx;
                float avgMy = avgD * avgVy;
                float avgMz = avgD * avgVz;
                float avgE = 0.5 * (ei + en);
                float vdotn = avgVx * nx + avgVy * ny + avgVz * nz;
                fluxD += vdotn * avgD;
                fluxMx += vdotn * avgMx + avgP * nx;
                fluxMy += vdotn * avgMy + avgP * ny;
                fluxMz += vdotn * avgMz + avgP * nz;
                fluxE += vdotn * (avgE + avgP);
            } else {
                fluxMx += pi * nx;
                fluxMy += pi * ny;
                fluxMz += pi * nz;
            }
        }
        fluxDensity[i] = fluxD;
        fluxMomX[i] = fluxMx;
        fluxMomY[i] = fluxMy;
        fluxMomZ[i] = fluxMz;
        fluxEnergy[i] = fluxE;
    }
}

__device__ void cfd_flep_task(float* density, float* momX, float* momY, float* momZ, float* energy, int* neighbors, float* normalsX, float* normalsY, float* normalsZ, float* fluxDensity, float* fluxMomX, float* fluxMomY, float* fluxMomZ, float* fluxEnergy, int nCells, float gamma, float smoothing, int flep_bx, int flep_by, int flep_grid_x, int flep_grid_y) {
    int i = flep_bx * blockDim.x + threadIdx.x;
    if (i < nCells) {
        float di = density[i];
        float mxi = momX[i];
        float myi = momY[i];
        float mzi = momZ[i];
        float ei = energy[i];
        float vxi = mxi / di;
        float vyi = myi / di;
        float vzi = mzi / di;
        float pi = cfd_pressure(di, mxi, myi, mzi, ei, gamma);
        float ci = cfd_speed_of_sound(pi, di, gamma);
        float speedI = sqrtf(vxi * vxi + vyi * vyi + vzi * vzi);
        float fluxD = 0.0;
        float fluxMx = 0.0;
        float fluxMy = 0.0;
        float fluxMz = 0.0;
        float fluxE = 0.0;
        for (int j = 0; j < 4; ++j) {
            int nb = neighbors[i * 4 + j];
            float nx = normalsX[i * 4 + j];
            float ny = normalsY[i * 4 + j];
            float nz = normalsZ[i * 4 + j];
            if (nb >= 0) {
                float dn = density[nb];
                float mxn = momX[nb];
                float myn = momY[nb];
                float mzn = momZ[nb];
                float en = energy[nb];
                float vxn = mxn / dn;
                float vyn = myn / dn;
                float vzn = mzn / dn;
                float pn = cfd_pressure(dn, mxn, myn, mzn, en, gamma);
                float cn = cfd_speed_of_sound(pn, dn, gamma);
                float speedN = sqrtf(vxn * vxn + vyn * vyn + vzn * vzn);
                float factor = 0.5 * smoothing * (ci + cn + speedI + speedN);
                fluxD += factor * (di - dn);
                fluxMx += factor * (mxi - mxn);
                fluxMy += factor * (myi - myn);
                fluxMz += factor * (mzi - mzn);
                fluxE += factor * (ei - en);
                float avgVx = 0.5 * (vxi + vxn);
                float avgVy = 0.5 * (vyi + vyn);
                float avgVz = 0.5 * (vzi + vzn);
                float avgP = 0.5 * (pi + pn);
                float avgD = 0.5 * (di + dn);
                float avgMx = avgD * avgVx;
                float avgMy = avgD * avgVy;
                float avgMz = avgD * avgVz;
                float avgE = 0.5 * (ei + en);
                float vdotn = avgVx * nx + avgVy * ny + avgVz * nz;
                fluxD += vdotn * avgD;
                fluxMx += vdotn * avgMx + avgP * nx;
                fluxMy += vdotn * avgMy + avgP * ny;
                fluxMz += vdotn * avgMz + avgP * nz;
                fluxE += vdotn * (avgE + avgP);
            } else {
                fluxMx += pi * nx;
                fluxMy += pi * ny;
                fluxMz += pi * nz;
            }
        }
        fluxDensity[i] = fluxD;
        fluxMomX[i] = fluxMx;
        fluxMomY[i] = fluxMy;
        fluxMomZ[i] = fluxMz;
        fluxEnergy[i] = fluxE;
    }
}

__global__ void cfd_flep(float* density, float* momX, float* momY, float* momZ, float* energy, int* neighbors, float* normalsX, float* normalsY, float* normalsZ, float* fluxDensity, float* fluxMomX, float* fluxMomY, float* fluxMomZ, float* fluxEnergy, int nCells, float gamma, float smoothing, volatile unsigned int* flep_preempt, int* flep_next_task, int flep_num_tasks, int flep_grid_x, int flep_grid_y, int flep_L) {
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
            cfd_flep_task(density, momX, momY, momZ, energy, neighbors, normalsX, normalsY, normalsZ, fluxDensity, fluxMomX, fluxMomY, fluxMomZ, fluxEnergy, nCells, gamma, smoothing, flep_task % flep_grid_x, flep_task / flep_grid_x, flep_grid_x, flep_grid_y);
            __syncthreads();
        }
    }
}
